"""The four benchmark workloads.

Each workload makes seeded inputs (`setup`, timed as set-up), an independent
reference (`reference`, untimed, numpy/scipy only), and runs the program's
unsketched solve (`exact`) and its full sketched pipeline (`sketched`), sizing
included. `check` recomputes the objective of an output and applies the pass
rule of reference.py. CountSketch is used throughout, as in the CLI.

All regsketch calls go through module attributes (`statdim.sd_estimate`, not
an imported name), so the traced run can wrap them from outside.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import scipy.linalg

import reference as ref
from regsketch import cca, genreg, lowrank, problems, ridge, statdim
from regsketch import sketch as sk

POLICY = sk.SizePolicy()


def bench_rng(seed: int, stream: int) -> np.random.Generator:
    """The benchmark's own seeded stream, apart from the program's make_rng."""
    return np.random.default_rng([int(seed), int(stream)])


def sd_of(sigma: np.ndarray, lam: float) -> float:
    return float(np.sum(sigma**2 / (sigma**2 + lam)))


def _countsketch_or_identity(m: int, n: int, seed: int) -> sk.SketchSpec:
    # as the CLI does: a sketch that cannot reduce the row count is the identity
    return sk.countsketch(m, seed=seed) if m < n else sk.identity()


class Workload:
    name = ""
    exact_reps = 1  # unsketched solves per round, so short solves get many samples

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def reference(self, inp: dict) -> dict:
        raise NotImplementedError

    def exact(self, inp: dict):
        raise NotImplementedError

    def sketched(self, inp: dict, seed: int):
        raise NotImplementedError

    def check(self, r: dict, inp: dict, out, sketched: bool) -> float:
        """Raise reference.CheckFailed unless `out` passes; return the objective ratio."""
        raise NotImplementedError

    def sd_exact(self, inp: dict) -> dict:
        """sd_lam of each matrix the sketched path estimates it for, by id."""
        return {}

    def instrument(self, inp: dict, tracer) -> dict:
        """Inputs whose benchmark-built callables report to `tracer`."""
        return inp


class RidgeTall(Workload):
    """Dense tall ridge, one response, sd_lam about 10: n >> sd_lam."""

    name = "ridge_tall"
    n, d, eps = 65536, 64, 0.5
    sd_band = (8.0, 12.0)
    exact_reps = 5

    def setup(self, seed):
        A, b = problems.generate_problem(self.n, self.d, seed, kind="power")
        lam = problems.lambda_for_sd(A, *self.sd_band)
        return {"A": A, "b": b, "lam": lam}

    def reference(self, inp):
        return ref.ridge_reference(inp["A"], inp["b"], inp["lam"])

    def sd_exact(self, inp):
        return {id(inp["A"]): sd_of(scipy.linalg.svdvals(inp["A"]), inp["lam"])}

    def exact(self, inp):
        return ridge.solve_exact(ridge.RidgeProblem(inp["A"], inp["b"], inp["lam"]))

    def sketched(self, inp, seed):
        A, lam = inp["A"], inp["lam"]
        sd_hat = statdim.sd_estimate(A, lam, seed=seed).estimate
        m = min(A.shape[0], sk.recommend_sizes(POLICY, sd_hat, self.eps, "ridge_rows"))
        spec = _countsketch_or_identity(m, A.shape[0], seed)
        return ridge.solve_sketched_rows(ridge.RidgeProblem(A, inp["b"], lam), spec)

    def check(self, r, inp, out, sketched):
        return ref.check_ridge(r, inp["A"], inp["b"], inp["lam"], out.x, self.eps if sketched else None)


class LowrankDense(Workload):
    """Ridge low-rank, dense geometric spectrum, k = 10, sd_lam about 5."""

    name = "lowrank_dense"
    n, d, k, eps = 4000, 1000, 10, 0.5
    sd_band = (3.0, 8.0)

    def setup(self, seed):
        A, _ = problems.generate_problem(self.n, self.d, seed, kind="geometric")
        lam = problems.lambda_for_sd(A, *self.sd_band)
        return {"A": A, "lam": lam}

    def reference(self, inp):
        return ref.lowrank_reference(inp["A"], self.k, inp["lam"])

    def sd_exact(self, inp):
        return {id(inp["A"]): sd_of(scipy.linalg.svdvals(inp["A"]), inp["lam"])}

    def exact(self, inp):
        return lowrank.solve_exact_shrink(inp["A"], self.k, inp["lam"])

    def sketched(self, inp, seed):
        return lowrank.solve_sketched(inp["A"], self.k, inp["lam"], self.eps, policy=POLICY, seed=seed)

    def check(self, r, inp, out, sketched):
        return ref.check_lowrank(r, inp["A"], out.Y, out.X, inp["lam"], self.eps if sketched else None)


class CcaSparse(Workload):
    """Regularized CCA of two CSR views, 1.4M stored entries, strong lam (sd about 4)."""

    name = "cca_sparse"
    n, d1, d2, density, lam, eps = 200_000, 40, 30, 0.1, 0.03, 0.25

    def setup(self, seed):
        A, _ = problems.generate_problem(self.n, self.d1, seed, density=self.density)
        B, _ = problems.generate_problem(self.n, self.d2, seed + 10_000, density=self.density)
        return {"A": A, "B": B}

    def reference(self, inp):
        return ref.cca_reference(inp["A"], inp["B"], self.lam, self.lam)

    def sd_exact(self, inp):
        # the eigenvalues of A'A are the squared singular values of A
        return {id(M): sd_of(np.sqrt(np.maximum(scipy.linalg.eigvalsh((M.T @ M).toarray()), 0.0)), self.lam)
                for M in (inp["A"], inp["B"])}

    def exact(self, inp):
        return cca.solve_exact_cca(inp["A"], inp["B"], self.lam, self.lam)

    def sketched(self, inp, seed):
        A, B = inp["A"], inp["B"]
        sd_a = statdim.sd_estimate(A, self.lam, seed=seed).estimate
        sd_b = statdim.sd_estimate(B, self.lam, seed=seed + 1).estimate
        m = min(self.n, cca.cca_sketch_size(POLICY, max(sd_a, sd_b), self.eps))
        spec = _countsketch_or_identity(m, self.n, seed)
        return cca.solve_sketched_cca(A, B, self.lam, self.lam, spec)

    def check(self, r, inp, out, sketched):
        return ref.check_cca(r, out.sigmas, out.U, out.V, self.eps if sketched else None)


class GenregMr(Workload):
    """Group lasso (vnorm_1) regression with 16 responses through the prox solver."""

    name = "genreg_mr"
    n, d, responses, mu, eps = 20_000, 40, 16, 0.1, 0.5

    def setup(self, seed):
        A, _ = problems.generate_problem(self.n, self.d, seed, kind="power")
        rng = bench_rng(seed, 2)
        B = A @ rng.standard_normal((self.d, self.responses)) + 0.01 * rng.standard_normal(
            (self.n, self.responses)
        )
        base = genreg.builtin_measures()["vnorm_1"]
        # scaling keeps the base measure's declared invariances, as the CLI does
        f = dataclasses.replace(genreg.scaled(base, self.mu), flags=base.flags)
        return {"A": A, "B": B, "f": f, "solver": genreg.prox_small_solver(f)}

    def reference(self, inp):
        return ref.group_lasso_reference(inp["A"], inp["B"], self.mu)

    def _solve(self, inp, seed, identity):
        return genreg.solve_general_regression(
            inp["A"], inp["B"], inp["f"], inp["solver"], self.eps, seed=seed,
            identity_sketches=identity, assume_inheritance=True,
        )

    def exact(self, inp):
        # the identity-sketched prox solver: the program has no closed form here
        return self._solve(inp, 0, True)

    def sketched(self, inp, seed):
        return self._solve(inp, seed, False)

    def check(self, r, inp, out, sketched):
        X, _ = out
        return ref.check_group_lasso(r, inp["A"], inp["B"], self.mu, X, self.eps if sketched else None)

    def instrument(self, inp, tracer):
        f = inp["f"]

        def counted_prox(V, t, _prox=f.prox):
            tracer.count("genreg.prox.calls")
            return _prox(V, t)

        counted = dataclasses.replace(f, prox=counted_prox)
        holder = types.SimpleNamespace(solve=genreg.prox_small_solver(counted))
        tracer.wrap(holder, "solve", "genreg.small_solver")
        return dict(inp, f=counted, solver=holder.solve)


WORKLOADS = {w.name: w for w in (RidgeTall(), LowrankDense(), CcaSparse(), GenregMr())}
