"""Brute-force dense constructions, independent of the package internals.

Everything here is rebuilt from first principles: its own state enumeration,
ladder matrices from the occupation rules, field and Hamiltonian matrices via
dense products.  Only raw arrays (mode positions, weights, quadrature data)
are read off the package objects.
"""

import itertools
import math

import numpy as np


def enumerate_states(num_modes, n_max):
    """Occupation tuples of total <= n_max, sorted by (total, tuple).

    A tuple of total t is a multiset of t mode labels, counted mode by mode."""
    states = [
        tuple(labels.count(i) for i in range(num_modes))
        for total in range(n_max + 1)
        for labels in itertools.combinations_with_replacement(range(num_modes), total)
    ]
    states.sort(key=lambda s: (sum(s), s))
    return states


def ladder_matrices(num_modes, n_max):
    """Dense annihilation and truncated creation matrices per mode."""
    states = enumerate_states(num_modes, n_max)
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    ann = [np.zeros((dim, dim), dtype=complex) for _ in range(num_modes)]
    cre = [np.zeros((dim, dim), dtype=complex) for _ in range(num_modes)]
    for col, n in enumerate(states):
        for i in range(num_modes):
            if n[i] > 0:
                m = n[:i] + (n[i] - 1,) + n[i + 1 :]
                ann[i][index[m], col] = math.sqrt(n[i])
            if sum(n) < n_max:
                m = n[:i] + (n[i] + 1,) + n[i + 1 :]
                cre[i][index[m], col] = math.sqrt(n[i] + 1)
    return states, ann, cre


class DenseModel:
    """All dense operators for a (grid, quad, n_max) configuration."""

    def __init__(self, grid, quad, n_max):
        self.grid = grid
        self.quad = quad
        self.n_max = n_max
        self.states, self.ann, self.cre = ladder_matrices(grid.num_modes, n_max)
        self.dim = len(self.states)

    def smeared(self, f, which):
        f = np.asarray(f, dtype=complex)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(self.grid.num_modes):
            if which == "annihilate":
                out += math.sqrt(self.grid.weights[i]) * np.conj(f[i]) * self.ann[i]
            elif which == "create":
                out += math.sqrt(self.grid.weights[i]) * f[i] * self.cre[i]
            else:
                out += math.sqrt(self.grid.weights[i]) * (
                    np.conj(f[i]) * self.ann[i] + f[i] * self.cre[i]
                )
        if which == "segal":
            out /= math.sqrt(2.0)
        return out

    def phi(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        f = self.grid.rho * np.exp(-1j * (self.grid.modes @ x))
        return self.smeared(f, "segal")

    def h0(self):
        esum = [sum(n[i] * self.grid.omega[i] for i in range(self.grid.num_modes)) for n in self.states]
        return np.diag(np.array(esum, dtype=complex))

    def number(self):
        return np.diag(np.array([float(sum(n)) for n in self.states], dtype=complex))

    def hi(self):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        coef = self.quad.weights * self.quad.chi_values
        for j in range(self.quad.num_nodes):
            if coef[j] == 0.0:
                continue
            out += coef[j] * np.linalg.matrix_power(self.phi(self.quad.nodes[j]), 4)
        return out

    def hk(self, kappa):
        return self.h0() + kappa * self.hi()

    def ground(self, kappa):
        evals, evecs = np.linalg.eigh(self.hk(kappa))
        vec = evecs[:, 0]
        anchor = vec[np.argmax(np.abs(vec))] if abs(vec[0]) < 1e-12 else vec[0]
        vec = vec * (np.conj(anchor) / abs(anchor))
        return float(evals[0]), vec, evals


def handle_matrix(handle):
    """Dense matrix of a matrix-free handle, applied column by column to unit vectors."""
    mat = np.zeros((handle.dim, handle.dim), dtype=complex)
    e = np.zeros(handle.dim, dtype=complex)
    for j in range(handle.dim):
        e[j] = 1.0
        mat[:, j] = handle(e)
        e[j] = 0.0
    return mat


def rayleigh_quotient(handle, v):
    """<v, H v> / <v, v> of a Hermitian handle, real part."""
    return float(np.real(np.vdot(v, handle(v)))) / float(np.real(np.vdot(v, v)))
