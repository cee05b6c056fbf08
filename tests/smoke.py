"""Smoke check that the library runs without mpmath installed or imported.

Imports rosette, evaluates the boundary on the cusp and node directions
(series arguments that round to w = 1) and extracts the features; exits
non-zero if mpmath ended up in sys.modules.  Needs only the runtime
dependencies:

    python tests/smoke.py
"""

import sys

import numpy as np

import rosette

params = rosette.RosetteParams(5, 0.3)
rosette.f_many(params, np.exp(1j * np.pi / params.n * np.arange(2 * params.n)))
rosette.extract_features(params)
if "mpmath" in sys.modules:
    sys.exit("mpmath was imported")
print("ok")
