"""Every public function and constructor, whatever it is given, returns finite numbers or
raises a RosetteError (ROADMAP item 9).

Each example gives every argument a valid value, drawn from small fixed sets (orders
3, 5 and 12, counts up to 64), and then, unless it tests the valid values alone,
replaces one argument by an adversarial one: text, None, a Fraction, a list where one
number goes, ragged nesting, a complex where a real goes, NaN or an infinity.  The valid
reals include -0.0, +-1e308, +-BETA_LIMIT and the parameters k pi/n and one ulp off them.
RosetteParams refuses a phase past BETA_LIMIT, so ``params`` are built from the phases
within it; RosetteParams' own case draws every phase and must refuse the others.  Likewise
an order past ORDER_LIMIT: ``params`` and ``spec`` take the orders above, and every
function of an order ``n`` draws these too and must refuse them.  An adversarial ``params``
is no RosetteParams: text, None, the tuple (5, 0.3), a SeriesSpec or an int.
"""

import dataclasses
import enum
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import rosette
from rosette import (
    DomainError,
    Overlay,
    RenderSpec,
    RosetteError,
    RosetteParams,
    SeparationSide,
    SeriesKind,
    SeriesSpec,
    boundary_points,
    bounding_radius,
    hypocycloid,
    render_svg,
)
from rosette.cli import BETA_LIMIT
from rosette.errors import ORDER_LIMIT

ORDERS = (3, 5, 12)
# past ORDER_LIMIT; float(2 * n) raises OverflowError for 10**308, float(n) for the last two
TOO_LARGE_ORDERS = (ORDER_LIMIT + 1, 10**308, 10**400, 2**1024)


def _node_parameters() -> list[float]:
    """t = k pi/n for a few k at each order, and the doubles on either side."""
    ts = []
    for n in ORDERS:
        for k in (0, 1, 2, n, 2 * n - 1, 2 * n):
            t = k * (math.pi / n)
            ts += [t, float(np.nextafter(t, math.inf)), float(np.nextafter(t, -math.inf))]
    return ts


REALS = (0.0, -0.0, 0.3, -1.0, 2.5, 1e-300, 1e308, -1e308, *_node_parameters())
PHASES = (0.0, -0.0, 0.3, -1.2, math.pi / 2, -math.pi / 2, 3 * math.pi / 2 + 2 * math.pi,
          BETA_LIMIT, -BETA_LIMIT, 1e308, -1e308)
POINTS = (0.0, -0.0, 0.5, 0.3 + 0.4j, 1.0, -1.0, 1j, complex(math.cos(math.pi / 5),
          math.sin(math.pi / 5)), 1.0 + 5e-10, 2.0, 1e308, complex(0.0, -1e308))
PARAM_PHASES = tuple(beta for beta in PHASES if abs(beta) <= BETA_LIMIT)
HALF_PI_CLASS = (math.pi / 2, -math.pi / 2, math.pi / 2 + 3 * math.pi, math.pi / 2 - 5 * math.pi)
NOT_A_NUMBER = ("0.5", None, Fraction(1, 2), object())
NOT_FINITE = (math.nan, math.inf, -math.inf)


def _reals_or_points(values):
    """One value, or a list of up to 8 of them."""
    one = st.sampled_from(values)
    return st.one_of(one, st.lists(one, max_size=8))


def _junk(scalar: bool, complex_ok: bool):
    """Adversarial values for one slot: no number, not finite, or not one number."""
    bad = NOT_A_NUMBER + NOT_FINITE + (complex(math.nan, 0.0), complex(0.5, math.inf))
    bad += () if complex_ok else (0.5 + 0.5j, 1j)
    lists = (["0.5"], [None], [[0.1], [0.2, 0.3]], [0.1, "0.2"], [0.1, math.nan])
    lists += () if complex_ok else ([0.1 + 1j],)
    return st.sampled_from(bad + lists + ((([0.5, 0.25], [0.5]) if scalar else ())))


def _params(phases=PARAM_PHASES):
    return st.builds(RosetteParams, st.sampled_from(ORDERS), st.sampled_from(phases))


def _render_spec():
    """Specs that construct: a margin whose viewport half-width overflows (1e308 at n = 3)
    is refused by RenderSpec, whose own case draws it."""
    fields = st.fixed_dictionaries({
        "params": _params(), "radial_lines": st.sampled_from((1, 3)),
        "circles": st.sampled_from((1, 2)), "samples_per_curve": st.just(16),
        "width_px": st.sampled_from((1, 64)),
        "margin_frac": st.sampled_from((0.0, 0.08, 2.0, 1e300, 1e308)),
        "overlay": st.sets(st.sampled_from(list(Overlay))).map(frozenset)})
    return fields.filter(lambda kw: math.isfinite(
        bounding_radius(kw["params"].n) * (1.0 + kw["margin_frac"]))).map(
        lambda kw: RenderSpec(**kw))


def _curves():
    """Closed polylines (a square, a bow tie, a 16-gon), an open one, a huge one."""
    gon = np.exp(2j * math.pi * np.arange(17) / 16)
    return st.sampled_from(([0, 1, 1 + 1j, 1j, 0], [0, 1 + 1j, 1, 1j, 0], gon,
                            [0, 1, 1j], [0, 1e308, 1e308 + 1e308j, 0], [0, -1e308, 1j, 0]))


def _curve_functions():
    p = RosetteParams(5, 0.3)
    return st.sampled_from((
        lambda ts: boundary_points(p, ts),
        lambda ts: hypocycloid(3, np.exp(1j * np.asarray(ts))),
        lambda ts: np.exp(1j * np.asarray(ts)),
        lambda ts: np.sin(ts),  # real values
    ))


def _counts(least: int):
    return st.sampled_from(tuple(c for c in (0, 1, 2, 3, 16, 64) if c >= least))


# The valid values of every argument, by name; (function, name) where the name alone is
# ambiguous.  An argument missing here fails the test, so every public name is covered.
VALID = {
    "params": _params(),
    ("halfspeed_points", "params"): _params(HALF_PI_CLASS),
    "n": st.sampled_from(ORDERS + TOO_LARGE_ORDERS),
    "beta": st.sampled_from(PHASES),
    "beta_tilde": st.sampled_from(PHASES),
    "theta": st.sampled_from(PHASES),
    "theta_tilde": st.sampled_from(PHASES),
    "t": st.sampled_from(REALS),
    "t0": st.sampled_from(REALS),
    "t1": st.sampled_from(REALS),
    "ts": _reals_or_points(REALS),
    "x": st.sampled_from(REALS + (171.6, 171.7, 5e-309)),
    "abs_z": st.sampled_from((0.0, 0.5, 0.99, 1.0, 2.0, 1e308)),
    "m": _counts(0),
    "count": _counts(0),
    "seed": st.sampled_from((0, 1, 42)),
    "sample_count": _counts(1),
    "probe_grid": st.sampled_from((1, 4, 8)),
    "grid_resolution": st.sampled_from((2, 4, 8)),
    "per_interval": st.sampled_from((None, 1, 16, 64)),
    "z": _reals_or_points(POINTS),
    ("f", "z"): st.sampled_from(POINTS),
    ("dilatation", "z"): st.sampled_from(POINTS),
    ("jacobian", "z"): st.sampled_from(POINTS),
    ("integral_oracle", "z"): st.sampled_from(POINTS),
    "w0": st.sampled_from(POINTS + (0.2 + 0.2j, 0.5 + 0.5j)),
    "points": _reals_or_points(POINTS + (0.2 + 0.2j, 0.5 + 0.5j)),
    "location": st.sampled_from((None,) + POINTS),
    "exclusion_radius": st.sampled_from((0.0, 1e-9, 1e-3, 1e308)),
    ("winding_number", "exclusion_radius"): st.sampled_from((None, 0.0, 1e-9, 1e-3, 1e308)),
    "curve": _curves(),
    "pts": _curves(),
    "curve_fn": _curve_functions(),
    "kind": st.sampled_from(list(SeriesKind)),
    "side": st.sampled_from(list(SeparationSide)),
    "confirm": st.booleans(),
    "spec": st.builds(SeriesSpec, st.sampled_from(list(SeriesKind)), st.sampled_from(ORDERS)),
    ("render_svg", "spec"): _render_spec(),
    "copies": st.just(None),
    "radial_lines": _counts(1),
    "circles": _counts(1),
    "samples_per_curve": st.sampled_from((16, 64)),
    "width_px": _counts(1),
    "margin_frac": st.sampled_from(REALS),
    "overlay": st.sets(st.sampled_from(list(Overlay))).map(frozenset),
}

# Arguments that take one number, a complex one, or neither (the junk is then no number).
SCALAR = {"n", "beta", "beta_tilde", "theta", "theta_tilde", "t", "t0", "t1", "x", "abs_z",
          "m", "count", "seed", "sample_count", "probe_grid", "grid_resolution",
          "per_interval", "w0", "location", "exclusion_radius", "radial_lines", "circles",
          "samples_per_curve", "width_px", "margin_frac", ("f", "z"), ("dilatation", "z"),
          ("jacobian", "z"), ("integral_oracle", "z")}
COMPLEX = {"z", "w0", "points", "location", "curve", "pts", ("f", "z"), ("dilatation", "z"),
           ("jacobian", "z"), ("integral_oracle", "z")}

# Arguments whose default None is valid, so that None is no adversarial value there.
DEFAULT_NONE = {"per_interval", "location", ("winding_number", "exclusion_radius")}
# Arguments that are no numbers, which the adversarial values leave alone.
NOT_NUMERIC = {"confirm", "copies", "curve_fn", "overlay", "spec"}
# The adversarial values of ``params``: anything but a RosetteParams.
NOT_PARAMS = st.sampled_from(("5, 0.3", None, (5, 0.3), SeriesSpec(SeriesKind.ANALYTIC, 5), 5))

# Records hold what they are given, a failed check's NaN residual included, so they are
# checked to compute nothing; the other classes validate their arguments.
RECORDS = {"BoundaryFeature", "CheckResult", "CoverageReport", "CurveSample", "EndpointValues",
           "FeatureReport", "IntegralCheck", "MapValue", "RotatedCopy",
           "VerificationReport", "WindingResult"}
# Examples per callable; the verifications and the renderer take 10-100 ms an example.
EXAMPLES = {"univalence_scan": 25, "fundamental_decomposition": 25, "fundamental_tiling": 25,
            "render_svg": 25, "symmetry_suite": 40}


def _callables() -> list[str]:
    out = []
    for name in rosette.__all__:
        obj = getattr(rosette, name)
        if not (isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum))):
            out.append(name)
    return out


CALLABLES = _callables()


def _key(function: str, argument: str):
    return (function, argument) if (function, argument) in VALID else argument


def _not_finite(value) -> list:
    """Every NaN or infinity in a result: in numbers, arrays, records, containers, SVG text."""
    if value is None or isinstance(value, (bool, int, enum.Enum)):
        return []
    if isinstance(value, str):
        return [value] if "nan" in value.lower() or "inf" in value.lower() else []
    if isinstance(value, (float, complex, np.number)):
        return [] if np.isfinite(value) else [value]
    if isinstance(value, np.ndarray):
        return [] if np.isfinite(value).all() else [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    return [bad for item in value for bad in _not_finite(item)]


def test_every_public_name_is_a_record_or_is_covered():
    assert RECORDS <= set(CALLABLES)
    missing = [f"{name}({p})" for name in CALLABLES if name not in RECORDS
               for p in inspect.signature(getattr(rosette, name)).parameters
               if _key(name, p) not in VALID]
    assert missing == []


@pytest.mark.parametrize("name", sorted(set(CALLABLES) - RECORDS))
def test_a_public_call_returns_finite_numbers_or_raises_a_rosette_error(name):
    fn = getattr(rosette, name)
    keys = {p: _key(name, p) for p in inspect.signature(fn).parameters}

    @settings(max_examples=EXAMPLES.get(name, 80), derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.data())
    def check(data):
        kwargs = {p: data.draw(VALID[key], label=p) for p, key in keys.items()}
        targets = [p for p in keys if p not in NOT_NUMERIC]
        target = None
        if targets and data.draw(st.booleans(), label="one adversarial argument"):
            target = data.draw(st.sampled_from(targets), label="adversarial argument")
            key = keys[target]
            junk = NOT_PARAMS if target == "params" else _junk(key in SCALAR, key in COMPLEX)
            junk = junk.filter(lambda v: v is not None or key not in DEFAULT_NONE)
            kwargs[target] = data.draw(junk, label=target)
        past_limit = target is None and (
            name == "RosetteParams" and abs(kwargs["beta"]) > BETA_LIMIT
            or "n" in keys and keys["n"] == "n" and kwargs["n"] in TOO_LARGE_ORDERS)
        try:
            result = fn(**kwargs)
        except RosetteError as exc:
            event(f"raised {type(exc).__name__}")
            assert not past_limit or isinstance(exc, DomainError), exc
            return
        event("returned")
        assert target is None, f"{target}={kwargs[target]!r} was taken"
        assert not past_limit, f"a phase past BETA_LIMIT or an order too large was taken: {kwargs}"
        if name == "tail_bound" and result == math.inf:  # documented for abs_z >= 1
            return
        assert _not_finite(result) == [], kwargs

    check()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_holds_exactly_what_it_is_given(name):
    cls = getattr(rosette, name)
    fields = inspect.signature(cls).parameters
    pool = st.sampled_from(NOT_A_NUMBER + NOT_FINITE + (1e308, -0.0, [0.5, 0.25]))

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(st.fixed_dictionaries({f: pool for f in fields}))
    def check(kwargs):
        record = cls(**kwargs)
        assert all(getattr(record, f) is v for f, v in kwargs.items())

    check()


@pytest.mark.parametrize("call", [
    lambda: rosette.endpoint_values(10**400),
    lambda: rosette.f_many(RosetteParams(10**400, 0.3), [0.5]),
    lambda: rosette.eval_series_many(SeriesSpec(SeriesKind.ANALYTIC, 10**400), [0.5]),
    lambda: rosette.separation_angle(RosetteParams(10**308, 0.3), SeparationSide.NODE_AFTER_CUSP),
    lambda: rosette.jacobian(RosetteParams(10**308, 0.3), 0.5),
    lambda: rosette.f_many(RosetteParams(ORDER_LIMIT + 1, 0.3), [0.5]),
], ids=["endpoint_values", "f_many", "eval_series_many", "separation_angle", "jacobian",
        "f_many_past_the_limit"])
def test_an_order_too_large_for_a_float_is_a_domain_error(call):
    # each raised OverflowError ("int too large to convert to float") but the last, which
    # returned the values of order 2**53
    with pytest.raises(DomainError):
        call()


def test_the_largest_order_gives_finite_numbers():
    params, spec = RosetteParams(ORDER_LIMIT, 0.3), SeriesSpec(SeriesKind.ANALYTIC, ORDER_LIMIT)
    values = [rosette.separation_angle(params, SeparationSide.NODE_AFTER_CUSP),
              rosette.jacobian(params, 0.5), *rosette.endpoint_values(ORDER_LIMIT),
              *rosette.f_many(params, [0.5, 0.999 + 0.01j]),
              *rosette.eval_series_many(spec, [0.5, 0.999 + 0.01j])]
    assert np.isfinite(values).all(), values


@pytest.mark.parametrize("overlay", [None, 5, 2.5, object()])
def test_an_overlay_that_is_no_collection_is_a_domain_error(overlay):
    # None raised TypeError ("'NoneType' object is not iterable")
    with pytest.raises(DomainError):
        RenderSpec(RosetteParams(5, 0.3), overlay=overlay)


@pytest.mark.parametrize("copies", [5, 2.5, object(), "abcde"])
def test_copies_that_are_no_list_of_copies_are_a_domain_error(copies):
    # 5 raised TypeError ("object of type 'int' has no len()")
    spec = RenderSpec(RosetteParams(5, 0.3), radial_lines=1, circles=1, samples_per_curve=16,
                      width_px=64, overlay=frozenset({Overlay.FUNDAMENTAL_SET}))
    with pytest.raises(DomainError):
        render_svg(spec, copies=copies)
