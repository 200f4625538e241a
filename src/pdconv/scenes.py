"""Synthetic RGB-D segmentation scenes of layered rectangles and ellipses.

Every scene contains one pair of adjacent regions that share an RGB color but
sit on depth planes at least 0.2 apart (separable only through depth), and
one pair separable by color alone.  Scenes are deterministic functions of
their seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError
from .pdtio import read_pdt, write_pdt

DEPTH_PAIR = (1, 2)  # (base region, offset region) of the depth-only pair


@dataclass
class SceneConfig:
    height: int = 48
    width: int = 48
    classes: int = 5
    min_extra_shapes: int = 1
    max_extra_shapes: int = 4
    rgb_noise: float = 0.02
    depth_noise: float = 0.02
    depth_gap: tuple[float, float] = (0.25, 0.35)
    # max per-axis amplitude of a random planar depth ramp; blurs depth
    # levels within each region so the offset region is only visible as a
    # local discontinuity
    depth_ramp: float = 0.15

    def __post_init__(self):
        if self.classes < 3:
            raise ConfigurationError(f"need at least 3 classes, got {self.classes}")
        if self.height < 16 or self.width < 16:
            raise ConfigurationError(
                f"canvas {self.height}x{self.width} too small to fit shapes (min 16x16)"
            )
        if self.min_extra_shapes < 1 or self.max_extra_shapes < self.min_extra_shapes:
            raise ConfigurationError("invalid shape-count range")
        needed = max(self.classes - 3, 1)
        strip = self.width - int(self.width * 0.55)
        if strip // max(needed, self.min_extra_shapes) < 4:
            raise ConfigurationError(
                f"canvas width {self.width} cannot fit {needed} extra shape bands"
            )
        if self.max_extra_shapes < needed:
            raise ConfigurationError(
                f"max_extra_shapes={self.max_extra_shapes} cannot cover classes 3..{self.classes - 1}"
            )
        if self.depth_gap[0] < 0.2:
            raise ConfigurationError("depth gap must be at least 0.2")


@dataclass
class SegSample:
    rgb: np.ndarray     # (3, H, W) float32 in [0, 1]
    depth: np.ndarray   # (1, H, W) float32 in [0, 1]
    labels: np.ndarray  # (H, W) int32 in [0, classes)


def _ellipse_mask(h, w, cy, cx, ry, rx):
    yy, xx = np.ogrid[:h, :w]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _rect_mask(h, w, y0, y1, x0, x1):
    mask = np.zeros((h, w), dtype=bool)
    mask[y0:y1, x0:x1] = True
    return mask


def _paint(labels, rgb, depth, mask, cls, color, plane):
    labels[mask] = cls
    for ch in range(3):
        rgb[ch][mask] = color[ch]
    depth[0][mask] = plane


def gen_scene(seed: int, cfg: SceneConfig) -> SegSample:
    """Layered scene: background (class 0), a base slab plus a depth-offset
    region (classes 1 and 2, identical color, separated only by a depth step),
    and color-coded extra shapes for the remaining classes in a side strip."""
    rng = np.random.default_rng(seed)
    h, w, m = cfg.height, cfg.width, cfg.classes
    labels = np.zeros((h, w), dtype=np.int32)
    rgb = np.empty((3, h, w), dtype=np.float64)
    depth = np.empty((1, h, w), dtype=np.float64)

    bg_color = rng.uniform(0.15, 0.85, size=3)
    # the background plane spans nearly the whole depth range so neither the
    # absolute nor the image-relative depth level of any region is class-coded
    bg_plane = rng.uniform(0.1, 0.9)
    rgb[:] = bg_color[:, None, None]
    depth[:] = bg_plane

    # depth-only pair: a base slab and an offset region of the same color
    pair_color = rng.uniform(0.15, 0.85, size=3)
    strip_x = int(w * 0.55)
    by0 = rng.integers(0, h // 4)
    by1 = rng.integers(3 * h // 4, h)
    bx0 = rng.integers(0, strip_x // 4)
    bx1 = rng.integers(int(strip_x * 0.8), strip_x)
    # with only 3 classes the base must sit on the background plane so that
    # class 0 vs 1 stays a color-only pair
    base_plane = bg_plane if m == 3 else rng.uniform(0.4, 0.6)
    gap = rng.uniform(*cfg.depth_gap)
    # random step direction (raised or sunken) where headroom allows, so the
    # pair is identified only by the local discontinuity, not the level
    can_raise = base_plane + gap <= 0.97
    can_sink = base_plane - gap >= 0.03
    if can_raise and can_sink:
        sign = 1.0 if rng.random() < 0.5 else -1.0
    else:
        sign = 1.0 if can_raise else -1.0
    _paint(labels, rgb, depth, _rect_mask(h, w, by0, by1, bx0, bx1),
           DEPTH_PAIR[0], pair_color, base_plane)
    cy = (by0 + by1) / 2 + rng.uniform(-2, 2)
    cx = (bx0 + bx1) / 2 + rng.uniform(-2, 2)
    ry = max((by1 - by0) * 0.3, 3.0)
    rx = max((bx1 - bx0) * 0.3, 3.0)
    if rng.random() < 0.5:
        raised = _ellipse_mask(h, w, cy, cx, ry, rx)
    else:
        raised = _rect_mask(h, w, int(cy - ry), int(cy + ry), int(cx - rx), int(cx + rx))
    raised &= _rect_mask(h, w, by0 + 1, by1 - 1, bx0 + 1, bx1 - 1)  # keep inside the base
    _paint(labels, rgb, depth, raised, DEPTH_PAIR[1], pair_color,
           base_plane + sign * gap)

    # extra shapes in the right strip, one band per shape, classes cycling
    extra_classes = list(range(3, m))
    n_extra = int(rng.integers(max(cfg.min_extra_shapes, len(extra_classes)),
                               max(cfg.max_extra_shapes, len(extra_classes)) + 1))
    band_w = (w - strip_x) // n_extra
    for k in range(n_extra):
        if extra_classes:
            cls = extra_classes[k % len(extra_classes)]
        else:
            cls = DEPTH_PAIR[0]  # m == 3: extra texture for the base class
        x0 = strip_x + k * band_w
        x1 = min(x0 + band_w, w)
        sy0 = int(rng.integers(0, max(h - 6, 1)))
        sy1 = int(min(sy0 + rng.integers(6, h // 2 + 6), h))
        color = rng.uniform(0.15, 0.85, size=3)
        # the first extra shape sits on the background plane: a color-only pair
        plane = bg_plane if (k == 0 and m > 3) else rng.uniform(0.05, 0.9)
        if rng.random() < 0.5:
            mask = _rect_mask(h, w, sy0, sy1, x0 + 1, x1 - 1)
        else:
            mask = _ellipse_mask(h, w, (sy0 + sy1) / 2, (x0 + x1) / 2,
                                 max((sy1 - sy0) / 2, 2.0), max((x1 - x0) / 2 - 1, 2.0))
            mask &= _rect_mask(h, w, 0, h, x0, x1)
        _paint(labels, rgb, depth, mask, cls, color, plane)

    if cfg.depth_ramp > 0:
        ax = rng.uniform(-cfg.depth_ramp, cfg.depth_ramp)
        ay = rng.uniform(-cfg.depth_ramp, cfg.depth_ramp)
        yy, xx = np.mgrid[:h, :w]
        depth[0] += ax * (xx / w - 0.5) + ay * (yy / h - 0.5)
    rgb += rng.normal(0.0, cfg.rgb_noise, size=rgb.shape)
    depth += rng.normal(0.0, cfg.depth_noise, size=depth.shape)
    np.clip(rgb, 0.0, 1.0, out=rgb)
    np.clip(depth, 0.0, 1.0, out=depth)
    return SegSample(rgb.astype(np.float32), depth.astype(np.float32), labels)


# --- dataset directories ---------------------------------------------------

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def save_dataset(directory: str, count: int, seed: int, cfg: SceneConfig) -> None:
    os.makedirs(directory, exist_ok=True)
    for i in range(count):
        sample = gen_scene(seed + i, cfg)
        stem = os.path.join(directory, f"scene_{i:05d}")
        write_pdt(stem + ".rgb.pdt", sample.rgb)
        write_pdt(stem + ".depth.pdt", sample.depth)
        write_pdt(stem + ".label.pdt", sample.labels)
    manifest = {
        "version": MANIFEST_VERSION,
        "classes": cfg.classes,
        "height": cfg.height,
        "width": cfg.width,
        "count": count,
        "seed": seed,
    }
    tmp = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, os.path.join(directory, MANIFEST_NAME))


def _check_sample(path: str, arr: np.ndarray, shape: tuple[int, ...], kind: type) -> None:
    """A sample array must have the manifest's shape and a dtype of `kind`."""
    if arr.shape != shape or not np.issubdtype(arr.dtype, kind):
        raise FormatError(f"{path}: expected shape {shape} of {kind.__name__} dtype, "
                          f"found shape {arr.shape} of dtype {arr.dtype}")


def load_dataset(directory: str) -> tuple[dict, list[SegSample]]:
    """Read a dataset directory; a malformed manifest or sample is a FormatError."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError alike
        raise FormatError(f"{path} is not a JSON manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path} must hold a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise FormatError(f"unsupported manifest version in {path}")
    for key in ("count", "height", "width", "classes"):
        if key not in manifest:
            raise FormatError(f"{path}: manifest key '{key}' is missing")
        value = manifest[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise FormatError(f"{path}: manifest key '{key}' must be a non-negative "
                              f"integer, got {value!r}")
    h, w = manifest["height"], manifest["width"]
    samples = []
    for i in range(manifest["count"]):
        stem = os.path.join(directory, f"scene_{i:05d}")
        arrays = []
        for suffix, shape, kind in ((".rgb.pdt", (3, h, w), np.floating),
                                    (".depth.pdt", (1, h, w), np.floating),
                                    (".label.pdt", (h, w), np.integer)):
            arrays.append(read_pdt(stem + suffix))
            _check_sample(stem + suffix, arrays[-1], shape, kind)
        samples.append(SegSample(*arrays))
    return manifest, samples
