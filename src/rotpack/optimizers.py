"""Scipy's gradient-free minimizers, by the names a ``QaoaConfig`` gives them.

``OPTIMIZER_METHODS`` names the methods, and one table maps each to
scipy's name and options for a cap on evaluations. ``run_minimize`` calls
``scipy.optimize.minimize`` with them. The driver runs a trajectory that
way: the trajectory is the objective, and it raises to stop ``minimize``
early (a ground-state hit, or the budget spent).

``ScipyAskTell`` is the same call inverted to ask/tell: ``minimize`` runs
in a worker thread and relays points and values over a pair of one-slot
queues. ``ask()`` yields the next point, ``tell(value)`` answers it, and
``ask()`` returns None once the method has terminated. ``close`` stops it
early: the objective raises a private exception out of ``minimize`` at its
next call. Any other exception raised inside ``minimize`` ends the worker
too; ``ask()`` re-raises it in the caller's thread, once. Nothing in the
package runs it now. The tests read its asks as the reference for the
points ``run_minimize`` evaluates, and the benchmark's tracer wraps its
methods and ``driver.make_optimizer`` by name, so it stays until the
benchmark stops naming them.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

import numpy as np
from scipy.optimize import minimize

__all__ = ["ScipyAskTell", "OPTIMIZER_METHODS", "make_optimizer", "run_minimize"]

# scipy's name for each method, and its options for n parameters and a cap
# of max_evals evaluations
_SCIPY_METHODS = {
    # below n + 2 scipy warns and substitutes n + 2 itself; passing it
    # directly keeps the same points without the warning
    "cobyla": ("COBYLA", lambda n, max_evals: {"maxiter": max(max_evals, n + 2)}),
    "nelder-mead": (
        "Nelder-Mead",
        lambda n, max_evals: {"maxiter": max_evals, "maxfev": max_evals},
    ),
}

OPTIMIZER_METHODS = tuple(_SCIPY_METHODS)


def _scipy_method(method: str, n: int, max_evals: int) -> tuple[str, dict]:
    """Scipy's name and options for ``method`` (matched in any case)."""
    try:
        name, options = _SCIPY_METHODS[method.lower()]
    except KeyError:
        raise ValueError(f"unknown optimizer {method!r}") from None
    return name, options(n, max_evals)


def run_minimize(
    objective: Callable[[np.ndarray], float],
    method: str,
    x0: np.ndarray,
    max_evals: int,
) -> None:
    """Minimize ``objective`` from ``x0`` with ``method``, in this thread.

    It returns when the method terminates; an exception the objective
    raises, to stop early or otherwise, propagates.
    """
    name, options = _scipy_method(method, len(x0), max_evals)
    minimize(objective, np.asarray(x0, dtype=float), method=name, options=options)


class _Closed(Exception):
    """Raised by the objective to stop ``minimize`` once ``close`` is called."""


class ScipyAskTell:
    """One scipy minimize call, inverted to ask/tell. Not thread-safe."""

    def __init__(self, method: str, x0: np.ndarray, max_evals: int) -> None:
        scipy_name, options = _scipy_method(method, len(x0), max_evals)
        self._ask_q: queue.Queue = queue.Queue(maxsize=1)
        self._tell_q: queue.Queue = queue.Queue(maxsize=1)
        self._done = False
        self._pending = False
        self._error: Exception | None = None

        def objective(x: np.ndarray) -> float:
            self._ask_q.put(np.array(x, copy=True))
            value = self._tell_q.get()
            if value is None:
                raise _Closed
            return value

        def worker() -> None:
            try:
                minimize(objective, np.asarray(x0, dtype=float), method=scipy_name,
                         options=options)
            except _Closed:
                pass
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

    def close(self) -> None:
        """Stop the worker and join it; safe in any state, and more than once.

        An error ``minimize`` raised that ``ask()`` has not reported yet is
        raised here.
        """
        if self._done:
            return
        # the worker may already have ended; then nobody reads this
        self._tell_q.put(None)
        while self.ask() is not None:
            pass
        self._pending = False


def make_optimizer(method: str, x0: np.ndarray, max_evals: int) -> ScipyAskTell:
    return ScipyAskTell(method, x0, max_evals)
