"""Smoke check that the library runs without mpmath installed or imported.

Imports rosette, evaluates the boundary on the cusp and node directions
(series arguments that round to w = 1), extracts the features and evaluates
f, h' and g' on a 2048-point interior batch at n = 96 (the direct sum);
exits non-zero if a value is not finite or mpmath ended up in sys.modules.
Needs only the runtime dependencies:

    python tests/smoke.py
"""

import sys

import numpy as np

import rosette
from rosette.maps import dg_many, dh_many

params = rosette.RosetteParams(5, 0.3)
rosette.f_many(params, np.exp(1j * np.pi / params.n * np.arange(2 * params.n)))
rosette.extract_features(params)
inner = rosette.RosetteParams(96, 0.3)
rng = np.random.default_rng(0)
z = 0.99 * np.sqrt(rng.uniform(0, 1, 2048)) * np.exp(2j * np.pi * rng.uniform(0, 1, 2048))
for values in (rosette.f_many(inner, z), dh_many(inner, z), dg_many(inner, z)):
    if not np.isfinite(values).all():
        sys.exit("an interior value is not finite")
if "mpmath" in sys.modules:
    sys.exit("mpmath was imported")
print("ok")
