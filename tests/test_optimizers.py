"""Ask/tell inversion of scipy's gradient-free minimizers."""

import threading

import numpy as np
import pytest

from rotpack.optimizers import OPTIMIZER_METHODS, ScipyAskTell, make_optimizer


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


class TestScipyAskTell:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            ScipyAskTell("bfgs", np.zeros(2), 10)

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
        opt.close(1.0)

    def test_tell_without_ask(self):
        opt = make_optimizer("cobyla", np.zeros(2), 20)
        with pytest.raises(RuntimeError, match="tell without a pending ask"):
            opt.tell(0.5)
        opt.ask()
        opt.tell(0.5)
        with pytest.raises(RuntimeError, match="tell without a pending ask"):
            opt.tell(0.5)
        opt.close(0.5)

    @pytest.mark.parametrize("method", OPTIMIZER_METHODS)
    def test_close_drains_worker(self, method):
        before = threading.active_count()
        opt = make_optimizer(method, np.zeros(4), 300)
        for _ in range(3):
            x = opt.ask()
            assert x is not None
            opt.tell(float((x**2).sum()))
        opt.close(0.0)
        assert opt.ask() is None
        assert not opt._thread.is_alive()
        assert threading.active_count() == before

    def test_close_with_pending_ask(self):
        opt = make_optimizer("nelder-mead", np.zeros(2), 100)
        assert opt.ask() is not None
        # close must first answer the outstanding proposal
        opt.close(2.0)
        assert not opt._thread.is_alive()

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
        def failing_minimize(fun, x0, **kwargs):
            fun(x0)
            raise ValueError("scipy failed")

        monkeypatch.setattr("rotpack.optimizers.minimize", failing_minimize)
        opt = make_optimizer("cobyla", np.zeros(2), 20)
        assert opt.ask() is not None
        opt.tell(1.0)
        with pytest.raises(ValueError, match="scipy failed"):
            opt.ask()
        assert not opt._thread.is_alive()
        assert opt.ask() is None
        opt.close(0.0)
