"""Brute-force reference implementations used as test oracles.

These stay deliberately naive (nested loops, direct counting) and independent
of the library's vectorized paths.
"""

import numpy as np


def naive_conv2d(x, w, spec, bias=None):
    """Direct six-nested-loop convolution with zero "same" padding: (k-1)*d/2
    zeros on each side, output positions every s-th input pixel from 0."""
    nb, c, h, w_in = x.shape
    o, cg, kh, kw = w.shape
    d, s, g = spec.dilation, spec.stride, spec.groups
    ph, pw = (kh - 1) * d // 2, (kw - 1) * d // 2
    ho = (h + 2 * ph - (kh - 1) * d - 1) // s + 1
    wo = (w_in + 2 * pw - (kw - 1) * d - 1) // s + 1
    og = o // g
    out = np.zeros((nb, o, ho, wo), dtype=x.dtype)
    for n in range(nb):
        for oc in range(o):
            gi = oc // og
            for oh in range(ho):
                for ow in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                ih = oh * s + i * d - ph
                                iw = ow * s + j * d - pw
                                if 0 <= ih < h and 0 <= iw < w_in:
                                    acc += w[oc, ci, i, j] * x[n, gi * cg + ci, ih, iw]
                    out[n, oc, oh, ow] = acc
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out


def naive_metrics(preds, truth, m):
    """Per-pixel counting of accuracy and mean IoU."""
    correct = 0
    total = 0
    inter = [0] * m
    pred_count = [0] * m
    truth_count = [0] * m
    for p, t in zip(preds.reshape(-1), truth.reshape(-1)):
        total += 1
        pred_count[p] += 1
        truth_count[t] += 1
        if p == t:
            correct += 1
            inter[p] += 1
    ious = []
    for k in range(m):
        union = pred_count[k] + truth_count[k] - inter[k]
        if union > 0:
            ious.append(inter[k] / union)
    miou = sum(ious) / len(ious) if ious else 0.0
    return correct / total, miou


def naive_indicator_convolution(a, b):
    """Full 2-D convolution of two integer grids by direct summation."""
    ah, aw = a.shape
    bh, bw = b.shape
    out = np.zeros((ah + bh - 1, aw + bw - 1), dtype=np.int64)
    for i in range(ah):
        for j in range(aw):
            if a[i, j]:
                out[i : i + bh, j : j + bw] += a[i, j] * b
    return out
