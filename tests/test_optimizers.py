"""Scipy's gradient-free minimizers: the direct call and its ask/tell inversion."""

import threading

import numpy as np
import pytest

from rotpack import optimizers
from rotpack.optimizers import (
    OPTIMIZER_METHODS,
    ScipyAskTell,
    make_optimizer,
    run_minimize,
)


def drive(opt, objective, budget=10000):
    best_x, best_v = None, np.inf
    evals = 0
    while True:
        x = opt.ask()
        if x is None:
            break
        v = objective(x)
        evals += 1
        assert evals <= budget, "optimizer ignored its evaluation cap"
        if v < best_v:
            best_x, best_v = x, v
        opt.tell(v)
    return best_x, best_v, evals


def failing_minimize(fun, x0, **kwargs):
    """Stand-in for scipy's minimize that fails after one evaluation."""
    fun(x0)
    raise ValueError("scipy failed")


class TestScipyAskTell:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            ScipyAskTell("bfgs", np.zeros(2), 10)
        with pytest.raises(ValueError, match="unknown optimizer 'bfgs'"):
            run_minimize(lambda x: 0.0, "bfgs", np.zeros(2), 10)

    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_minimizes_quadratic(self, method):
        target = np.array([1.5, -0.5])
        opt = make_optimizer(method, np.zeros(2), 500)
        best_x, best_v, evals = drive(opt, lambda x: float(((x - target) ** 2).sum()))
        assert best_v < 1e-4
        np.testing.assert_allclose(best_x, target, atol=0.05)
        assert evals <= 510

    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_deterministic(self, method):
        def run():
            opt = make_optimizer(method, np.array([0.2, 0.8]), 60)
            seen = []
            while True:
                x = opt.ask()
                if x is None:
                    break
                seen.append(x.copy())
                opt.tell(float((x**2).sum() + x[0]))
            return seen

        a, b = run(), run()
        assert len(a) == len(b)
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_ask_returns_fresh_arrays(self):
        opt = make_optimizer("cobyla", np.zeros(2), 20)
        x1 = opt.ask()
        x1[:] = 99.0
        opt.tell(1.0)
        x2 = opt.ask()
        assert x2 is not None
        assert not np.any(x2 == 99.0)
        opt.close()

    def test_tell_without_ask(self):
        opt = make_optimizer("cobyla", np.zeros(2), 20)
        with pytest.raises(RuntimeError, match="tell without a pending ask"):
            opt.tell(0.5)
        opt.ask()
        opt.tell(0.5)
        with pytest.raises(RuntimeError, match="tell without a pending ask"):
            opt.tell(0.5)
        opt.close()

    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_close_drains_worker(self, method):
        before = threading.active_count()
        opt = make_optimizer(method, np.zeros(4), 300)
        for _ in range(3):
            x = opt.ask()
            assert x is not None
            opt.tell(float((x**2).sum()))
        opt.close()
        assert opt.ask() is None
        assert not opt._thread.is_alive()
        assert threading.active_count() == before

    def test_close_with_pending_ask(self):
        before = threading.active_count()
        opt = make_optimizer("nelder-mead", np.zeros(2), 100)
        assert opt.ask() is not None
        # the outstanding proposal is never answered: scipy stops inside it
        opt.close()
        assert not opt._thread.is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("told", [0, 3])
    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_close_stops_scipy_at_its_next_call(self, method, told, n, monkeypatch):
        calls = []
        real_minimize = optimizers.minimize

        def counting_minimize(fun, x0, **kwargs):
            def counted(x):
                calls.append(x)
                return fun(x)

            return real_minimize(counted, x0, **kwargs)

        monkeypatch.setattr("rotpack.optimizers.minimize", counting_minimize)
        opt = make_optimizer(method, np.zeros(n), 300)
        for _ in range(told):
            x = opt.ask()
            opt.tell(float((x**2).sum()))
        opt.close()
        assert not opt._thread.is_alive()
        # the call that receives the stop signal is the only one not told
        assert len(calls) == told + 1

    @pytest.mark.parametrize("state", ["ended", "budget 0", "worker error"])
    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_close_in_any_state(self, method, state, monkeypatch):
        before = threading.active_count()
        if state == "worker error":
            monkeypatch.setattr("rotpack.optimizers.minimize", failing_minimize)
        opt = make_optimizer(method, np.zeros(2), 0 if state == "budget 0" else 20)
        if state == "ended":
            while (x := opt.ask()) is not None:
                opt.tell(float((x**2).sum()))
        elif state == "worker error":
            opt.ask()
            opt.tell(1.0)
            with pytest.raises(ValueError, match="scipy failed"):
                opt.ask()
        opt.close()
        opt.close()
        assert not opt._thread.is_alive()
        assert threading.active_count() == before
        assert opt.ask() is None

    def test_close_raises_an_unreported_worker_error(self, monkeypatch):
        monkeypatch.setattr("rotpack.optimizers.minimize", failing_minimize)
        opt = make_optimizer("cobyla", np.zeros(2), 20)
        opt.ask()
        opt.tell(1.0)
        with pytest.raises(ValueError, match="scipy failed"):
            opt.close()
        assert not opt._thread.is_alive()
        opt.close()

    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_budget_respected(self, method):
        opt = make_optimizer(method, np.zeros(3), 25)
        count = 0
        while True:
            x = opt.ask()
            if x is None:
                break
            count += 1
            opt.tell(float((x**2).sum()))
        # scipy may spend a few extra calls on its final simplex/trust step
        assert count <= 40
        assert count >= 5

    def test_ask_after_done_stays_none(self):
        opt = make_optimizer("cobyla", np.zeros(1), 5)
        while opt.ask() is not None:
            opt.tell(0.0)
        assert opt.ask() is None
        assert opt.ask() is None

    def test_worker_error_raised_once_by_ask(self, monkeypatch):
        monkeypatch.setattr("rotpack.optimizers.minimize", failing_minimize)
        opt = make_optimizer("cobyla", np.zeros(2), 20)
        assert opt.ask() is not None
        opt.tell(1.0)
        with pytest.raises(ValueError, match="scipy failed"):
            opt.ask()
        assert not opt._thread.is_alive()
        assert opt.ask() is None
        opt.close()


# four parameters: COBYLA's floor of n + 2 evaluations is 6
@pytest.mark.parametrize("max_evals", [3, 40])
@pytest.mark.parametrize("method", OPTIMIZER_METHODS)
def test_run_minimize_evaluates_the_points_ask_tell_asks(method, max_evals):
    def toy(x):
        return float(((x - 0.3) ** 2).sum() + np.sin(3.0 * x[0]))

    x0 = np.array([0.1, -0.2, 0.5, 0.05])
    asked = []
    opt = make_optimizer(method, x0, max_evals)
    while (x := opt.ask()) is not None:
        asked.append(x)
        opt.tell(toy(x))

    evaluated = []

    def objective(x):
        # kept past the call, so copied, as ask() hands out copies
        evaluated.append(np.array(x, copy=True))
        return toy(x)

    run_minimize(objective, method, x0, max_evals)
    assert len(asked) > 0
    assert [x.tobytes() for x in evaluated] == [x.tobytes() for x in asked]

