"""Shared oracles and strategies for the test suite."""

import os

import numpy as np
from hypothesis import strategies as st

from rotpack import random_problem
from rotpack.circuits import ansatz_hamiltonian, assemble_ansatz


def all_bitstrings(num_qubits: int) -> np.ndarray:
    """Every bitstring of the register, row k = binary digits of k.

    Column q holds qubit q, matching the simulator's index convention
    (qubit 0 is the least significant bit of the statevector index).
    """
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    return ((idx[:, None] >> np.arange(num_qubits)[None, :]) & 1).astype(np.uint8)


def ansatz_circuit(problem, regime, params):
    """The regime's ansatz for ``problem`` at the 2p angles ``params``."""
    h = ansatz_hamiltonian(problem, regime)
    return assemble_ansatz(regime, problem.blocks, h, params)


@st.composite
def problems(
    draw, max_residues=4, max_rotamers=4, min_rotamers=1, nearest_neighbor_only=None
):
    n_res = draw(st.integers(1, max_residues))
    counts = tuple(
        draw(
            st.lists(
                st.integers(min_rotamers, max_rotamers),
                min_size=n_res,
                max_size=n_res,
            )
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    nn = nearest_neighbor_only
    if nn is None:
        nn = draw(st.booleans())
    return random_problem(
        n_res, counts, seed=seed, nearest_neighbor_only=nn, decay=0.3
    )


@st.composite
def problems_with_config(draw, **kwargs):
    problem = draw(problems(**kwargs))
    config = tuple(
        draw(st.integers(0, n - 1)) for n in problem.rotamer_counts
    )
    return problem, config


# Hamiltonians built by this process's driver, once the count is installed
_hamiltonians = []


def optimize_counting_hamiltonians(problem, config, k, *, prepared):
    """``driver.optimize(problem, config, k, prepared=prepared)`` in a pool
    worker, with the worker's pid and how many Hamiltonians its driver has
    built so far. The first call wraps ``driver.ansatz_hamiltonian`` for
    the rest of the process, so call it only in a worker."""
    from rotpack import driver

    if not _hamiltonians:
        original = driver.ansatz_hamiltonian

        def counted(*args, **kwargs):
            _hamiltonians[0] += 1
            return original(*args, **kwargs)

        _hamiltonians.append(0)
        driver.ansatz_hamiltonian = counted
    record = driver.optimize(problem, config, k, prepared=prepared)
    return record, os.getpid(), _hamiltonians[0]
