import functools
import math
import random

import numpy as np
import pytest

from toruscan.dynamics import State, flow_field, hamiltonian, joint_field
from toruscan.integrate import (
    _B_ROW,
    _E3_ROW,
    _E5_ROW,
    _STAGE_ROWS,
    DopriDriver,
    IntegratorOptions,
    StepUnderflowError,
    _attempt,
    _attempt_kernel,
    live_points,
    refine_event,
)


def harmonic_field(y):
    x, v = y
    return (v, -x)


def drive_to(field, y0, t_end, opts):
    drv = DopriDriver(field, opts).reset(0.0, tuple(y0))
    while drv.t < t_end:
        drv.step(t_end)
    return drv


class TestAdaptiveStepping:
    @pytest.mark.parametrize(
        "tolerance",
        [
            {"rel_tol": math.nan},
            {"rel_tol": 1.0},
            {"rel_tol": 0.0},
            {"abs_tol": math.nan},
        ],
    )
    def test_options_reject_nan_and_out_of_range_tolerances(self, tolerance):
        with pytest.raises(ValueError, match="rel_tol"):
            IntegratorOptions(**tolerance)

    def test_harmonic_oscillator_one_period(self):
        drv = drive_to(harmonic_field, (1.0, 0.0), 2.0 * math.pi, IntegratorOptions())
        assert abs(drv.y[0] - 1.0) < 1e-8
        assert abs(drv.y[1]) < 1e-8

    def test_energy_conservation_on_unperturbed_torus(self):
        s = State(1.2, 0.0, 0.0, 1.0 / 1.2 - 1.2)
        y0 = tuple(s) + (1.0, 0.0, 0.0, 0.0)
        drv = drive_to(joint_field(0.0), y0, 40.0, IntegratorOptions())
        h0 = hamiltonian(s, 0.0)
        h1 = hamiltonian(State(*drv.y[:4]), 0.0)
        assert abs(h1 - h0) / abs(h0) < 1e-9

    def test_zero_field_grows_step_to_max(self):
        opts = IntegratorOptions()
        drv = DopriDriver(lambda y: (0.0, 0.0), opts).reset(0.0, (1.0, 2.0))
        for _ in range(12):
            drv.step(1e9)
        assert drv.y == (1.0, 2.0)
        assert drv.h == opts.h_max

    def test_step_underflow_near_singularity(self):
        # Radial plunge into the primary at the origin for mu = 0.
        s = State(0.5, 0.0, -1.0, -0.5)
        opts = IntegratorOptions(h_min=1e-10)
        drv = DopriDriver(flow_field(0.0), opts).reset(0.0, tuple(s))
        with pytest.raises(StepUnderflowError):
            for _ in range(100000):
                drv.step(50.0)

    def test_fixed_step_bit_reproducible(self):
        opts = IntegratorOptions(fixed_step=True, h_init=0.01)
        y0 = (1.3, 0.0, 0.0, -0.4, 1.0, 0.0, 0.0, 0.0)
        runs = []
        for _ in range(2):
            drv = drive_to(joint_field(0.1), y0, 3.0, opts)
            runs.append(drv.y)
        assert runs[0] == runs[1]


def _dense(row, size):
    """row with its zero weights as 0.0, padded with zeros to size."""
    return [0.0 if c is None else c for c in row] + [0.0] * (size - len(row))


class TestDop853Tableau:
    """The tableau and the step against scipy's DOP853."""

    def test_literals_equal_scipy_coefficients(self):
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert len(_STAGE_ROWS) == coef.N_STAGES - 1
        for s, row in enumerate(_STAGE_ROWS, start=1):
            assert _dense(row, coef.N_STAGES_EXTENDED) == coef.A[s].tolist()
        assert _dense(_B_ROW, coef.N_STAGES) == coef.B.tolist()
        assert _dense(_E5_ROW, coef.N_STAGES + 1) == coef.E5.tolist()
        assert _dense(_E3_ROW, coef.N_STAGES + 1) == coef.E3.tolist()

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_step_matches_scipy_rk_step(self, n):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        field = TestAttemptKernel.FIELDS[n]
        rng = random.Random(20261020 + n)
        for _ in range(50):
            y = tuple(rng.uniform(0.3, 2.0) for _ in range(n))
            h = rng.uniform(1e-3, 1e-1)
            k1 = field(y)
            y_new, _ = _attempt(field, IntegratorOptions(), y, k1, h)
            y_ref, f_ref = rk.rk_step(
                lambda t, u: np.array(field(tuple(u))),
                0.0,
                np.array(y),
                np.array(k1),
                h,
                rk.DOP853.A,
                rk.DOP853.B,
                rk.DOP853.C,
                np.empty((rk.DOP853.n_stages + 1, n)),
            )
            assert np.allclose(y_new, y_ref, rtol=1e-14, atol=0.0)
            assert np.allclose(field(y_new), f_ref, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize(
        "n, tangent",
        [
            pytest.param(1, 0, id="1"),
            pytest.param(4, 0, id="4"),
            pytest.param(8, 0, id="8"),
            pytest.param(8, 4, id="8-tangent4"),
            pytest.param(4, 2, id="4-tangent2"),
        ],
    )
    def test_error_norm_matches_scipy_formula(self, n, tangent):
        # Scripted stage derivatives, so that the estimates are sums without
        # cancellation and the norm's formula alone is compared.  The last
        # `tangent` components share the largest of their magnitudes at
        # either end as their scale; some of them start at exactly 0, as
        # the symmetric seed tangent does.
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        rng = random.Random(20261021 + n + 10 * tangent)
        opts = IntegratorOptions(rel_tol=1e-6, abs_tol=1e-8)
        split = n - tangent
        for _ in range(100):
            ks = [tuple(rng.uniform(-3.0, 3.0) for _ in range(n)) for _ in range(13)]
            scripted = iter(ks[1:])
            y = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            for i in range(split, n):
                y[i] *= rng.choice((0.0, 1e-3, 1.0, 1e3))
            y = tuple(y)
            h = rng.uniform(1e-3, 1e-1)
            y_new, err = _attempt(lambda u: next(scripted), opts, y, ks[0], h, tangent)
            size = np.maximum(np.abs(y), np.abs(y_new))
            size[split:] = size[split:].max(initial=0.0)
            scale = opts.abs_tol + opts.rel_tol * size
            err_ref = rk.DOP853._estimate_error_norm(rk.DOP853, np.array(ks), h, scale)
            assert err == pytest.approx(err_ref, rel=1e-12)

    def test_global_error_falls_by_more_than_2_to_the_7_per_halving(self):
        # Fixed steps over about one period of a nonlinear oscillation,
        # against a run with a sixty-fourth of the largest step.
        def final(h):
            opts = IntegratorOptions(fixed_step=True, h_init=h, h_max=h)
            return drive_to(pendulum_like_field, (2.5, 0.0), 8.0, opts).y

        exact = final(1.0 / 512.0)
        errors = [
            max(abs(a - b) for a, b in zip(final(h), exact))
            for h in (1.0 / 2.0, 1.0 / 4.0, 1.0 / 8.0)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine > 2.0**7


def pendulum_like_field(y):
    x, v = y
    return (v, -math.sin(x))


def random_state(rng, n, tangent):
    """Components in [-2, 2]; the tangent block's start at exactly 0 or
    1e-300 now and then, so that the block's scale and the signed zeros of
    the magnitudes are exercised."""
    y = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    for i in range(n - tangent, n):
        y[i] *= rng.choice((1.0, 1.0, 0.0, -0.0, 1e-300))
    return tuple(y)


class TestAttemptKernel:
    """The straight-line kernel against the reference _attempt."""

    FIELDS = {2: pendulum_like_field, 4: flow_field(0.1), 8: joint_field(0.1)}

    @pytest.mark.parametrize(
        "n, tangent",
        [
            pytest.param(2, 0, id="2"),
            pytest.param(4, 0, id="4"),
            pytest.param(8, 0, id="8"),
            pytest.param(4, 2, id="4-tangent2"),
            pytest.param(8, 4, id="8-tangent4"),
            pytest.param(2, 2, id="2-tangent2"),
        ],
    )
    @pytest.mark.parametrize(
        "opts",
        [IntegratorOptions(), IntegratorOptions(fixed_step=True)],
        ids=["adaptive", "fixed-step"],
    )
    def test_bit_identical_to_reference(self, n, tangent, opts):
        rng = random.Random(20240817 + n + 10 * tangent)
        field = self.FIELDS[n]
        kernel = _attempt_kernel(n, tangent)
        for _ in range(200):
            y = random_state(rng, n, tangent)
            h = rng.uniform(1e-5, 1e-1)
            k1 = field(y)
            expected = _attempt(field, opts, y, k1, h, tangent)
            assert kernel(field, opts, y, k1, h) == expected

    def test_tangent_block_changes_only_the_error(self):
        # The block scale is the block's largest magnitude: a tangent with a
        # zero component is measured against its size, not against abs_tol.
        field, opts = joint_field(0.1), IntegratorOptions()
        y = (1.3, 0.0, 0.0, -0.4, 0.0, -0.7, 0.7, 0.0)
        plain = _attempt(field, opts, y, field(y), 0.05)
        block = _attempt(field, opts, y, field(y), 0.05, 4)
        assert block[0] == plain[0] and block[1] < plain[1]
        assert _attempt_kernel(8, 4)(field, opts, y, field(y), 0.05) == block

    def test_driver_steps_with_kernel_and_matches_reference_trajectory(self):
        # A field compiled from a formula source steps with its fused kernel
        # for the driver's tangent block.
        y0 = (1.3, 0.0, 0.0, -0.4, 1.0, 0.0, 0.0, 0.0)
        for tangent in (0, 4):
            fast = DopriDriver(joint_field(0.1), IntegratorOptions(), tangent)
            assert fast.reset(0.0, y0)._attempt is joint_field(0.1).kernel(tangent)
            slow = DopriDriver(joint_field(0.1), IntegratorOptions()).reset(0.0, y0)
            slow._attempt = functools.partial(_attempt, tangent=tangent)
            for _ in range(200):
                assert fast.step(50.0) == slow.step(50.0)
                assert fast.h == slow.h


# The four formula sources: flow and joint fields, each at mu > 0 and mu = 0.
SOURCES = [
    pytest.param(factory, mu, id=f"{factory.__name__}-mu{mu}")
    for factory in (flow_field, joint_field)
    for mu in (0.1, 0.0)
]


class TestFusedKernel:
    """Each field's inlined kernel against the reference _attempt."""

    @pytest.mark.parametrize("factory, mu", SOURCES)
    @pytest.mark.parametrize(
        "opts",
        [IntegratorOptions(), IntegratorOptions(fixed_step=True)],
        ids=["adaptive", "fixed-step"],
    )
    def test_bit_identical_to_reference(self, factory, mu, opts):
        # Each field's kernels for no tangent block and for a block of 2
        # (the flow) or 4 (the joint system's tangent).
        field = factory(mu)
        n = 4 if factory is flow_field else 8
        rng = random.Random(20240817 + n + int(10 * mu))
        for tangent in (0, n // 2):
            fused_kernel = field.kernel(tangent)
            for _ in range(200):
                y = random_state(rng, n, tangent)
                h = rng.uniform(1e-5, 1e-1)
                k1 = field(y)
                fused = fused_kernel(field, opts, y, k1, h)
                assert fused == _attempt(field, opts, y, k1, h, tangent)
                assert fused == _attempt_kernel(n, tangent)(field, opts, y, k1, h)

    @pytest.mark.parametrize("factory, mu", SOURCES)
    def test_driver_trajectory_matches_reference(self, factory, mu):
        y0 = (1.3, 0.0, 0.0, -0.4, 1.0, 0.0, 0.0, 0.0)
        y0 = y0[:4] if factory is flow_field else y0
        for tangent in (0, len(y0) // 2):
            fast = DopriDriver(factory(mu), IntegratorOptions(), tangent).reset(0.0, y0)
            slow = DopriDriver(factory(mu), IntegratorOptions()).reset(0.0, y0)
            slow._attempt = functools.partial(_attempt, tangent=tangent)
            for _ in range(200):
                assert fast.step(500.0) == slow.step(500.0)
                assert fast.h == slow.h

    def test_counting_wrapper_steps_through_call_through_kernel(self):
        # A field wrapped the way a tracer wraps it has no fused kernel; its
        # trajectory is the fused one and it is called 11 times per attempt,
        # once at each accepted step's end and once for the first step's
        # derivative.
        field = joint_field(0.1)
        calls = [0]

        def counted(y):
            calls[0] += 1
            return field(y)

        y0 = (1.3, 0.0, 0.0, -0.4, 1.0, 0.0, 0.0, 0.0)
        opts = IntegratorOptions(h_init=0.1)
        fused = DopriDriver(field, opts).reset(0.0, y0)
        wrapped = DopriDriver(counted, opts).reset(0.0, y0)
        assert wrapped._attempt is _attempt_kernel(8, 0)
        attempts = [0]
        kernel = wrapped._attempt

        def counting_kernel(*args):
            attempts[0] += 1
            return kernel(*args)

        wrapped._attempt = counting_kernel
        for _ in range(200):
            assert wrapped.step(50.0) == fused.step(50.0)
            assert wrapped.h == fused.h
        assert attempts[0] > 200  # the trajectory has rejected attempts
        assert calls[0] == 11 * attempts[0] + 200 + 1

    def test_wrapped_field_keeps_the_tangent_block(self):
        # The driver's tangent block reaches the call-through kernel, so a
        # wrapped joint field takes the fused kernel's steps.
        field = joint_field(0.1)
        y0 = (1.3, 0.0, 0.0, -0.4, 0.0, -0.7, 0.7, 0.0)
        fused = DopriDriver(field, IntegratorOptions(), 4).reset(0.0, y0)
        wrapped = DopriDriver(lambda y: field(y), IntegratorOptions(), 4).reset(0.0, y0)
        assert wrapped._attempt is _attempt_kernel(8, 4)
        for _ in range(200):
            assert wrapped.step(50.0) == fused.step(50.0)
            assert wrapped.h == fused.h


def reference_controller(opts, h, rest, errs, prev):
    """(h of each attempt, next step's h, accepted (h, err)) by the predictive
    step controller written with builtin min and max; prev is the last
    accepted (h, err), None after reset."""
    tried = []
    rejected = False
    for err in errs:
        h_try = min(h, rest)
        tried.append(h_try)
        if err <= 1.0:
            clipped = h_try < h
            growth = 5.0 if err == 0.0 else 0.9 * err**-0.125
            if prev is not None and err != 0.0:
                h_prev, err_prev = prev
                ratio = max(1e-2, err_prev) / err
                growth = max(0.2, min(growth, growth * (h_try / h_prev) * ratio**0.125))
            growth = min(5.0, growth)
            if rejected:
                growth = min(1.0, growth)
            grown = (h_try if clipped else h) * growth
            if clipped:
                grown = max(grown, h)
            return tried, min(opts.h_max, max(opts.h_min, grown)), (h_try, err)
        if h_try <= opts.h_min:
            return tried, None, prev
        rejected = True
        h = max(opts.h_min, h_try * max(0.1, 0.9 * err**-0.125))
    raise AssertionError("scripted errors ran out")


def scripted_driver(opts, h, errs):
    """A driver on a constant state whose attempts report the scripted errors
    in turn; the returned list collects each attempt's h."""
    scripted = iter(errs)
    tried = []

    def attempt(field, opts, y, k1, h_try):
        tried.append(h_try)
        return y, next(scripted)

    drv = DopriDriver(lambda y: (0.0,), opts).reset(0.0, (1.0,))
    drv.h, drv._attempt = h, attempt
    return drv, tried


class TestStepController:
    """DopriDriver.step's predictive controller against builtin min and max."""

    @pytest.mark.parametrize(
        "opts, h, t_limit, errs",
        [
            (IntegratorOptions(), 0.01, 1.0, [[0.0]]),
            (IntegratorOptions(), 0.01, 1.0, [[1e-30]]),  # growth capped at 5
            (IntegratorOptions(), 0.01, 1.0, [[1.0]]),
            (IntegratorOptions(), 0.01, 1.0, [[0.37]]),
            (IntegratorOptions(h_max=0.1), 0.05, 1.0, [[0.0]]),  # capped at h_max
            (IntegratorOptions(), 0.01, 1.0, [[math.nan, 0.5]]),
            (IntegratorOptions(), 0.01, 1.0, [[1e12, 2.0, 0.5]]),  # 0.1 floor
            (IntegratorOptions(), 0.05, 0.01, [[0.9]]),  # clipped last step
            (IntegratorOptions(), 0.05, 0.01, [[0.0]]),
            (IntegratorOptions(), 0.05, 0.05, [[0.3]]),  # not clipped: rest == h
            (IntegratorOptions(), 0.05, 0.01, [[1e6, 0.2]]),
            (IntegratorOptions(h_min=1e-6, h_init=1e-6), 2e-6, 1.0, [[1e6, 0.5]]),
            (IntegratorOptions(h_min=1e-6, h_init=1e-6), 1e-6, 1.0, [[0.99]]),
            (IntegratorOptions(h_min=1e-6, h_init=1e-6), 2e-6, 1.0, [[1e6, 1e6]]),
            # A steadily rising error: the predictive factor wins.
            (IntegratorOptions(), 0.01, 1.0, [[0.05], [0.5], [0.9], [0.95]]),
            # Falling errors: the plain factor wins, capped at 5 and h_max.
            (IntegratorOptions(), 0.01, 1.0, [[0.5], [0.1], [1e-3], [0.0], [1e-9]]),
            # Err_prev below its 1e-2 floor, and a rejection.
            (IntegratorOptions(), 0.01, 1.0, [[1e-5], [3.0, 0.8], [1e-9], [1.0]]),
            # Two rejections: the prediction falls below the 0.2 floor.
            (IntegratorOptions(), 0.01, 1.0, [[1e-5], [1e12, 1e12, 1.0], [0.5]]),
            (IntegratorOptions(), 0.01, 0.05, [[0.2], [0.2], [0.2], [0.9], [0.1]]),
        ],
    )
    def test_matches_min_max_controller(self, opts, h, t_limit, errs):
        # errs holds each step's scripted errors, one list per step.
        drv, tried = scripted_driver(opts, h, [e for step in errs for e in step])
        prev = None
        for step in errs:
            t0 = drv.t
            expected_tried, expected_h, prev = reference_controller(
                opts, drv.h, t_limit - t0, step, prev
            )
            tried.clear()
            if expected_h is None:
                with pytest.raises(StepUnderflowError):
                    drv.step(t_limit)
                assert tried == expected_tried
                return
            drv.step(t_limit)
            assert tried == expected_tried
            assert drv.h == expected_h
            assert drv.t == t0 + tried[-1]

    def test_rising_error_shrinks_accepted_steps(self):
        # Accepted errors 0.05, 0.5, 0.9: after the third the plain factor
        # would shrink the step to 0.91 of itself, the prediction to 0.82.
        drv, tried = scripted_driver(IntegratorOptions(), 0.01, [0.05, 0.5, 0.9])
        for _ in range(3):
            drv.step(1.0)
        h2, h3 = tried[1], tried[2]
        plain = 0.9 * 0.9**-0.125
        assert h3 < h2
        assert drv.h == h3 * (plain * (h3 / h2) * (0.5 / 0.9) ** 0.125)
        assert drv.h < h3 * plain

    def test_no_growth_right_after_a_rejection(self):
        drv, tried = scripted_driver(IntegratorOptions(), 0.01, [2.0, 1e-4, 1e-4])
        drv.step(1.0)
        assert len(tried) == 2 and drv.h == tried[-1]
        drv.step(1.0)  # the next accepted step grows again
        assert drv.h > tried[-1]

    def test_first_step_after_reset_uses_the_plain_factor(self):
        # After errors 0.1 and 0.5 the prediction cuts the plain factor;
        # after reset the same error gives the plain factor again.
        drv, tried = scripted_driver(IntegratorOptions(), 0.01, [0.1, 0.5, 0.5])
        drv.step(1.0)
        drv.step(1.0)
        assert drv.h < tried[-1] * (0.9 * 0.5**-0.125)
        attempt = drv._attempt
        drv.reset(0.0, (1.0,))
        drv.h, drv._attempt = 0.01, attempt
        drv.step(1.0)
        assert drv.h == 0.01 * (0.9 * 0.5**-0.125)

    def test_kepler_pericentre_passages_reject_few_attempts(self):
        # Three periods of the mu = 0 Kepler orbit a = 1, e = 0.8 (pericentre
        # 0.2, apocentre 1.8), started at pericentre in the rotating frame:
        # the step shrinks steadily on each approach to pericentre.
        a, e = 1.0, 0.8
        rp = a * (1.0 - e)
        vp = math.sqrt((1.0 + e) / rp)
        drv = DopriDriver(flow_field(0.0), IntegratorOptions())
        drv.reset(0.0, (rp, 0.0, 0.0, vp - rp))
        kernel, attempts, accepted = drv._attempt, [0], 0

        def counting(*args):
            attempts[0] += 1
            return kernel(*args)

        drv._attempt = counting
        t_end = 3 * 2.0 * math.pi * a**1.5
        while drv.t < t_end:
            drv.step(t_end)
            accepted += 1
        assert (attempts[0] - accepted) / attempts[0] < 0.10


def step_once(field, opts, t, y, t_limit):
    """A driver after one accepted step from (t, y), with that step's start
    (t0, y0, k0) and end (t1, y1)."""
    drv = DopriDriver(field, opts).reset(t, y)
    t0, y0, t1, y1 = drv.step(t_limit)
    return drv, (t0, y0, field(y0)), (t1, y1)


class TestRefinement:
    def test_returns_an_end_without_a_crossing_to_locate(self):
        # x = cos t falls through 0 at pi/2 inside the step from 1.5.
        opts = IntegratorOptions(h_init=0.2)
        y = (math.cos(1.5), -math.sin(1.5))
        drv, start, right = step_once(harmonic_field, opts, 1.5, y, 10.0)
        assert right[1][0] < 0.0
        # g = 0 at the left end: that end is the event.
        event = refine_event(drv, start, start[:2], right, lambda s: s[0] - y[0])
        assert event == (1.5, y)
        # A left reading before the step moves to the step's start, where g
        # already has the right end's sign: the step's start is the event.
        left = (1.0, (math.cos(1.0), -math.sin(1.0)))

        def g(s):
            return s[0] - 2.0 * y[0]

        assert g(left[1]) > 0.0 > g(y) > g(right[1])
        assert refine_event(drv, start, left, right, g) == (1.5, y)

    def test_state_is_the_one_substep_reintegration_at_t_star(self):
        # x = cos t crosses zero inside one accepted step of the oscillator.
        opts = IntegratorOptions()
        drv = DopriDriver(harmonic_field, opts).reset(0.0, (1.0, 0.0))
        t0, y0, t1, y1 = drv.step(10.0)
        while y1[0] > 0.0:
            t0, y0, t1, y1 = drv.step(10.0)
        start = (t0, y0, harmonic_field(y0))
        t_star, y_star = refine_event(
            drv, start, (t0, y0), (t1, y1), lambda y: y[0]
        )
        assert t0 < t_star < t1
        kernel = _attempt_kernel(2, 0)
        again = kernel(harmonic_field, opts, y0, start[2], t_star - t0)[0]
        assert y_star == again
        # |g| within the time tolerance times |dg/dt| = |v|.
        assert abs(y_star[0]) <= 1e-11 * max(1.0, t_star) * abs(y_star[1])
        assert t_star == pytest.approx(0.5 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("fixed_step", [False, True])
    def test_contract_on_random_single_step_brackets(self, fixed_step):
        # x = cos t, v = -sin t: g = sin(tc) x + cos(tc) v = sin(tc - t)
        # changes sign at t = tc, which is put inside one accepted step.
        rng = random.Random(20261020 + fixed_step)
        for _ in range(200):
            h = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
            opts = IntegratorOptions(h_init=h, h_max=0.5, fixed_step=fixed_step)
            t_left = rng.uniform(0.0, 20.0)
            y_left = (math.cos(t_left), -math.sin(t_left))
            drv, start, right = step_once(
                harmonic_field, opts, t_left, y_left, t_left + 1.0
            )
            t0, y0, k0 = start
            tc = t0 + rng.uniform(0.05, 0.95) * (right[0] - t0)
            a, b = math.sin(tc), math.cos(tc)

            def g(y):
                return a * y[0] + b * y[1]

            assert (g(y0) > 0.0) != (g(right[1]) > 0.0)
            t_star, y_star = refine_event(drv, start, start[:2], right, g)
            assert t0 <= t_star <= right[0]
            again = _attempt_kernel(2, 0)(harmonic_field, opts, y0, k0, t_star - t0)[0]
            assert y_star == again
            dg_dt = a * y_star[1] - b * y_star[0]
            assert abs(g(y_star)) <= 1e-11 * max(1.0, t_star) * abs(dg_dt)

    @staticmethod
    def _apsis_time(rel_tol):
        # Kepler orbit a = 1.2, e = 0.3 started at pericentre: the radial
        # momentum first crosses zero downward at half the period.
        a, e = 1.2, 0.3
        rp = a * (1.0 - e)
        vp = math.sqrt((1.0 + e) / (a * (1.0 - e)))
        s0 = State(rp, 0.0, 0.0, vp - rp)
        opts = IntegratorOptions(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
        field = flow_field(0.0)

        def p_r(y):
            x, y_, vx, vy = y
            return (x * vx + y_ * vy) / math.hypot(x, y_)

        drv = DopriDriver(field, opts).reset(0.0, tuple(s0))
        prev_t, prev_y, prev_g = 0.0, tuple(s0), 0.0
        while drv.t < 10.0:
            t0, y0, t1, y1 = drv.step(10.0)
            g1 = p_r(y1)
            if prev_g > 1e-12 and g1 < -1e-12:
                start = (t0, y0, field(y0))
                t_star, _ = refine_event(drv, start, (prev_t, prev_y), (t1, y1), p_r)
                return t_star
            if abs(g1) > 1e-12:
                prev_t, prev_y, prev_g = t1, y1, g1
        raise AssertionError("no apsis found")

    def test_kepler_apsis_against_analytic_period(self):
        expected = math.pi * 1.2**1.5
        t_star = self._apsis_time(1e-10)
        assert t_star == pytest.approx(expected, abs=1e-8)

    def test_refinement_improves_under_tighter_tolerance(self):
        expected = math.pi * 1.2**1.5
        err_loose = abs(self._apsis_time(1e-8) - expected)
        err_tight = abs(self._apsis_time(1e-10) - expected)
        assert err_tight <= err_loose


class TestLivePoints:
    """live_points on a clock x' = 1, whose g is a function of time: its
    values and slopes at the step's ends are those of the quadratic
    1 - 4 a s (1 - s) (s the fraction of the step, minimum 1 - a at s =
    1/2), which the cubic Hermite through them reproduces, and a bump
    -16 b (s (1 - s))^2, flat at both ends, takes the true g down by b."""

    @staticmethod
    def points(a, b):
        drv = DopriDriver(lambda y: (1.0,), IntegratorOptions(), 0).reset(0.0, (0.0,))
        t0, y0, t1, y1 = drv.step(5.0)
        h = t1 - t0

        def g(y):
            s = (y[0] - t0) / h
            w = s * (1.0 - s)
            return 1.0 - 4.0 * a * w - 16.0 * b * w * w

        ends = (g(y0), -4.0 * a / h, g(y1), 4.0 * a / h)
        return live_points(drv, t0, y0, (1.0,), ends, 1.0, 1, lambda y: (g(y),)), t0, h

    def test_near_grazing_prediction_is_confirmed(self):
        # The Hermite predicts a minimum of +0.005, inside 1% of the end
        # readings 1.0; the true g reaches -0.005 there.
        points, t0, h = self.points(0.995, 0.01)
        assert len(points) == 2
        t, y, g = points[0]
        assert t == pytest.approx(t0 + 0.5 * h, rel=1e-12)
        assert g == pytest.approx(-0.005, rel=1e-9)

    def test_prediction_above_the_margin_is_not_checked(self):
        # A predicted minimum of +0.015 is not checked, although the true g
        # reaches -0.005.
        points, t0, h = self.points(0.985, 0.02)
        assert [p[2] for p in points] == [pytest.approx(1.0)]


class TestTangentFlowProperties:
    def test_linearity_in_tangent(self):
        s = State(1.5, 0.0, 0.0, 0.5 / 1.5 - 1.5)
        field = joint_field(0.1)
        opts = IntegratorOptions()
        finals = []
        for scale in (1.0, 2.0):
            y0 = tuple(s) + (0.3 * scale, 0.1 * scale, -0.2 * scale, 0.4 * scale)
            drv = drive_to(field, y0, 8.0, opts)
            finals.append(np.array(drv.y[4:]))
        ratio = finals[1] / finals[0]
        assert np.allclose(ratio, 2.0, rtol=1e-9)

    def test_tangent_matches_orbit_pair_difference(self):
        # The evolved tangent is the first-order difference of two nearby
        # orbits: (flow(s + eps*eta) - flow(s)) / eps -> eta(t).
        mu = 0.1
        s = State(1.5, 0.0, 0.0, 0.5 / 1.5 - 1.5)
        eta0 = (0.4, -0.3, 0.2, 0.6)
        eps = 1e-7
        opts = IntegratorOptions()
        joint = drive_to(joint_field(mu), tuple(s) + eta0, 2.0, opts)
        flow = flow_field(mu)
        base = drive_to(flow, tuple(s), 2.0, opts)
        shifted = drive_to(
            flow, tuple(si + eps * ei for si, ei in zip(s, eta0)), 2.0, opts
        )
        fd = [(a - b) / eps for a, b in zip(shifted.y, base.y)]
        assert np.allclose(fd, joint.y[4:], rtol=1e-5, atol=1e-6)

    def test_forward_backward_roundtrip(self):
        mu = 0.1
        s = State(1.6, 0.2, 0.05, 0.3)
        fwd = flow_field(mu)
        bwd = lambda y: tuple(-c for c in fwd(y))
        opts = IntegratorOptions()
        drv = drive_to(fwd, tuple(s), 5.0, opts)
        back = drive_to(bwd, drv.y, 5.0, opts)
        assert np.allclose(back.y, tuple(s), atol=1e-7)
