"""Gradient-free optimizers behind an ask/tell contract.

The driver owns the evaluation loop (it needs to simulate, sample, scan for
ground-state hits, and account shots between proposals), so optimizers are
inverted: ``ask()`` yields the next parameter vector, ``tell(value)``
returns its objective value, and ``ask()`` returns None once the underlying
method has terminated.

Scipy's COBYLA and Nelder-Mead run in a worker thread with the objective
relaying points and values over a pair of one-slot queues. ``close`` lets a
caller abandon an optimization early (ground state found): the remaining
proposals are answered with a constant fill value, which makes the method
converge on its own within a handful of cheap callbacks; nothing is raised
across the scipy boundary and the worker always terminates. An exception
raised inside ``minimize`` ends the worker too; ``ask()`` re-raises it in the
caller's thread, once, and behaves as terminated afterwards.
"""

from __future__ import annotations

import queue
import threading

import numpy as np
from scipy.optimize import minimize

__all__ = ["ScipyAskTell", "OPTIMIZER_METHODS", "make_optimizer"]

OPTIMIZER_METHODS = ("cobyla", "nelder-mead")


class ScipyAskTell:
    """One scipy minimize call, inverted to ask/tell. Not thread-safe."""

    def __init__(self, method: str, x0: np.ndarray, max_evals: int) -> None:
        method = method.lower()
        if method not in OPTIMIZER_METHODS:
            raise ValueError(f"unknown optimizer {method!r}")
        scipy_name = {"cobyla": "COBYLA", "nelder-mead": "Nelder-Mead"}[method]
        if scipy_name == "COBYLA":
            # below n + 2 scipy warns and substitutes n + 2 itself; passing
            # it directly keeps the same points without the warning
            options = {"maxiter": max(max_evals, len(x0) + 2)}
        else:
            options = {"maxiter": max_evals, "maxfev": max_evals}
        self._ask_q: queue.Queue = queue.Queue(maxsize=1)
        self._tell_q: queue.Queue = queue.Queue(maxsize=1)
        self._done = False
        self._pending = False
        self._error: Exception | None = None

        def objective(x: np.ndarray) -> float:
            self._ask_q.put(np.array(x, copy=True))
            return self._tell_q.get()

        def worker() -> None:
            try:
                minimize(objective, np.asarray(x0, dtype=float), method=scipy_name,
                         options=options)
            except Exception as exc:  # handed to the caller by ask()
                self._error = exc
            finally:
                self._ask_q.put(None)

        self._thread = threading.Thread(target=worker, daemon=True)
        self._thread.start()

    def ask(self) -> np.ndarray | None:
        if self._done:
            return None
        x = self._ask_q.get()
        if x is None:
            self._done = True
            self._thread.join()
            if self._error is not None:
                # raised once: later calls return None above
                raise self._error
            return None
        self._pending = True
        return x

    def tell(self, value: float) -> None:
        if not self._pending:
            raise RuntimeError("tell without a pending ask")
        self._pending = False
        self._tell_q.put(float(value))

    def close(self, fill_value: float) -> None:
        """Finish the worker by answering everything left with a constant."""
        if self._pending:
            self.tell(fill_value)
        while self.ask() is not None:
            self.tell(fill_value)


def make_optimizer(method: str, x0: np.ndarray, max_evals: int) -> ScipyAskTell:
    return ScipyAskTell(method, x0, max_evals)
