"""A random generator that records its draws, shared by the sweep tests."""
import numpy as np


class RecordingRng:
    """A generator that records every number ``uniform`` hands out, in order.

    ``replace`` maps a call index to an array returned in place of that
    call's draw, so a test can plant a NaN or a degenerate vector.
    """

    def __init__(self, seed, replace=None):
        self.rng = np.random.default_rng(seed)
        self.replace = dict(replace or {})
        self.calls = 0
        self.drawn = []

    def uniform(self, low, high, size=None):
        out = self.rng.uniform(low, high, size)
        out = self.replace.get(self.calls, out)
        self.calls += 1
        self.drawn.append(np.ravel(out))
        return out

    def stream(self):
        return np.concatenate(self.drawn)

    def __getattr__(self, name):
        """Every other method (``integers``, ``choice``) is the wrapped generator's, unrecorded."""
        return getattr(self.rng, name)
