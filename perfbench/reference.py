"""A fixed reference program, timed between CLI runs to gauge the machine's speed.

It does what a bhspectra command does besides its own work: it starts an
interpreter, imports numpy, scipy.special and scipy.stats (the CLI's heavy
imports), and then runs a little array arithmetic, a Python loop over floats
and text formatting. It never imports bhspectra, so no change to the package
changes its time. run.py runs it once per cycle and divides its timed medians
by the median of these runs.
"""

import io

import numpy as np
import scipy.special  # noqa: F401
import scipy.stats  # noqa: F401

x = np.linspace(0.0, 1.0, 20_000)
buf = io.StringIO()
acc = 0.0
for r in range(10):
    y = np.log1p(x * (r + 1)) - np.exp(-x)
    s = np.cumsum(y)
    for v in y[:4_000].tolist():
        acc += v * v
    buf.write("\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(x[:3_000].tolist(),
                                                             s[:3_000].tolist())))
if not (acc > 0 and buf.tell() > 0):
    raise SystemExit(1)
