import numpy as np
import pytest


@pytest.fixture(params=[None, 4096], ids=["numpy-default", "bufsize-4096"])
def caller_bufsize(request):
    """numpy's ufunc buffer size as a caller set it: numpy's own default, or
    4096 set here; the size in force before the test is restored after it."""
    before = np.getbufsize()
    if request.param is not None:
        np.setbufsize(request.param)
    try:
        yield np.getbufsize()
    finally:
        np.setbufsize(before)
