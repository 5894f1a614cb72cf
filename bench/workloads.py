"""The three benchmark workloads: inputs from a seed, items, and checks.

Each workload is a fixed job of items run one at a time (a closed loop).
Job ``k`` of seed ``s`` draws its inputs from ``(s, k)`` only, so the same
seed gives the same inputs and later jobs never repeat earlier inputs.  The
composition of a job (item kinds, direction counts, orders mu) is
stratified, so every job costs about the same whatever the seed; only the
values drawn inside each stratum vary.

The library is always called through its module attributes at call time
(``grid_ops.chain_check``), so the tracer's rebinding sees those calls.

An item returns a record (compared with the stored default-seed reference)
and a list of broken invariants (checked on every seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from dirmax import cli, grid_ops, harness, lacunary, sectors

SCALES = ("full", "tiny")
WARMUP_JOB = 2**31 - 1  # job index of the warm-up item's inputs, never measured


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, workdir: str):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        self.seed, self.scale, self.workdir = seed, scale, workdir
        os.makedirs(workdir, exist_ok=True)

    def _rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def job(self, k: int) -> list:
        raise NotImplementedError

    def warmup_item(self):
        raise NotImplementedError

    def prepare(self, item):
        """Untimed input generation for one item."""
        return item

    def execute(self, inputs):
        raise NotImplementedError

    def check(self, inputs, out) -> tuple[object, list[str]]:
        raise NotImplementedError

    def field_side(self) -> int:
        """Side of the square f64 grids the workload's items work on."""
        raise NotImplementedError

    def expected_spans(self, item) -> tuple[str, ...]:
        """Spans ("name") and call edges ("parent>child") the traced item must
        record; a missing one is a call path the tracer's rebinding missed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# norm-sweep
# ---------------------------------------------------------------------------


class NormSweep(Workload):
    """One sweep_N over N in (4, 16, 64) with m0, m1, m2 on three families,
    then one sweep_mu over mu in 1..5 with m1; an item is one sweep call."""

    name = "norm-sweep"
    OPS = ("m0", "m1", "m2")
    KINDS = ("disk", "needles", "random")
    SIZES = {
        "full": dict(ns=(4, 16, 64), mus=(1, 2, 3, 4, 5), size=128),
        "tiny": dict(ns=(4,), mus=(1, 2), size=32),
    }

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.p = self.SIZES[scale]

    def _sweep_seed(self, k: int) -> int:
        return int(self._rng(k).integers(0, 2**31))

    def job(self, k):
        s = self._sweep_seed(k)
        return [("N", self.p["ns"], self.OPS, s), ("mu", self.p["mus"], ("m1",), s)]

    def warmup_item(self):
        return ("N", self.p["ns"][:1], self.OPS, self._sweep_seed(WARMUP_JOB))

    def execute(self, item):
        mode, values, ops, s = item
        size = self.p["size"]
        if mode == "N":  # the calls `dirmax sweep --mode N|mu` issues
            return harness.sweep_N(values, self.KINDS, ops, size=size, seed=s)
        return harness.sweep_mu(values, family_kinds=self.KINDS, ops=ops, size=size, seed=s)

    def check(self, item, res):
        mode, values, ops, _s = item
        errors = []
        rows = res.rows
        if len(rows) != len(values) * len(ops):
            errors.append(f"{len(rows)} rows for {len(values)} values x {len(ops)} ops")
        by_label: dict[float, dict[str, float]] = {}
        for r in rows:
            if not (math.isfinite(r.max_ratio) and r.max_ratio >= 0.0):
                errors.append(f"ratio {r.max_ratio} at {r.label} {r.operator}")
            by_label.setdefault(r.label, {})[r.operator] = r.max_ratio
            if mode == "N" and r.n_directions != int(r.label):
                errors.append(f"N={r.label} swept {r.n_directions} directions")
        for label, rat in by_label.items():
            # M f >= |f| for m1 and m2, and m0 <= m1 <= m2 pointwise, so the
            # family maxima are ordered exactly
            chain = [rat[o] for o in ("m0", "m1", "m2") if o in rat]
            if any(a > b for a, b in zip(chain, chain[1:])):
                errors.append(f"operator ratios not ordered at {label}: {chain}")
            for o in ("m1", "m2"):
                if o in rat and rat[o] < 1.0:
                    errors.append(f"{o} ratio {rat[o]} < 1 at {label}")
        if mode == "mu":
            dirs = [r.n_directions for r in rows]
            if dirs != sorted(dirs):
                errors.append(f"thinned families not nested: {dirs}")
        record = [
            [r.label, r.operator, float(r.max_ratio).hex(),
             r.argmax_spec.kind if r.argmax_spec else None, r.n_directions]
            for r in rows
        ]
        return record, errors

    def field_side(self):
        return self.p["size"]

    def expected_spans(self, item):
        mode, _values, ops, _s = item
        edges = tuple(f"harness.measure_ratio>grid_ops.{op}" for op in ops)
        if mode == "N":
            return ("harness.sweep_N", "harness.sweep_N>harness.measure_ratio",
                    "harness.measure_ratio>harness.generate") + edges
        return ("harness.sweep_mu", "harness.sweep_mu>harness.staged_lacunary_directions",
                "harness.sweep_mu>harness.dedupe_angles",
                "harness.sweep_mu>harness.measure_ratio") + edges


# ---------------------------------------------------------------------------
# operator-chain
# ---------------------------------------------------------------------------


class OperatorChain(Workload):
    """One (f, omega) pair per item: chain_check, one domination_ratio, and
    one `dirmax apply` round trip through cli.run, rotating the operator over
    m0, m1, strong and gamma; a job is two items."""

    name = "operator-chain"
    KINDS = ("random_bumps", "disk", "needle_bundle", "hot_pixel")
    CLI_OPS = ("m0", "m1", "strong", "gamma")
    BETA, H, R = 0.1, 0.125, 1024.0
    TARGETS = (0.0, 1.0, 10.0, 100.0)
    SIZES = {"full": dict(n=256, dirs=(3, 8)), "tiny": dict(n=256, dirs=(1, 2))}
    CLI_FUNCTIONS = {"m0": "m0", "m1": "m1", "strong": "strong_maximal", "gamma": "gamma_op"}

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.p = self.SIZES[scale]
        self.cfg = grid_ops.OperatorConfig.dyadic(0.25, 3, samples_per_unit=16)
        self.cfg8 = grid_ops.OperatorConfig.dyadic(0.125, 8, samples_per_unit=16)

    def job(self, k):
        rng = self._rng(k)
        lo, hi = self.p["dirs"]
        # an item's cost grows with its direction count, so counts come in
        # pairs summing to lo + hi, taken in turn from a seeded start: each
        # count is uniform in lo..hi, every job costs about the same, and the
        # counts of any run of jobs are symmetric about the middle, which
        # keeps the item median steady
        pairs = [(lo + j, hi - j) for j in range((hi - lo + 2) // 2)]
        start = int(self._rng().integers(0, len(pairs)))
        counts = [int(v) for v in rng.permutation(pairs[(start + k) % len(pairs)])]
        # f kinds rotate as in test_pointwise_operator_chain (trial % 4), shifted
        # by one every four items so each (kind, CLI operator) pair comes up
        # once in 16 items; every seed's job 0 has the same kinds
        items = []
        for i in range(2):
            t = 2 * k + i
            kind = self.KINDS[(t + t // 4) % len(self.KINDS)]
            items.append((k, i, kind, counts[i], self.CLI_OPS[t % len(self.CLI_OPS)]))
        return items

    def warmup_item(self):
        return (WARMUP_JOB, 0, "random_bumps", 1, "m1")

    def prepare(self, item):
        k, i, kind, n_dirs, op = item
        rng = self._rng(k, i)
        spec_seed = int(rng.integers(0, 2**31))
        if kind == "needle_bundle":
            spec = harness.TestFunctionSpec(kind, count=5, seed=spec_seed, width=2.0,
                                            angles=tuple(rng.uniform(0, 1, 5)))
        elif kind == "disk":
            spec = harness.TestFunctionSpec(kind, radius=float(rng.uniform(3, 20)))
        else:
            spec = harness.TestFunctionSpec(kind, count=6, seed=spec_seed, scale=10.0)
        n = self.p["n"]
        f = harness.generate(spec, n, n, 1 / 16)
        omega = lacunary.DirectionSet(tuple(rng.uniform(0, 1, n_dirs)))
        alpha = self.BETA + self.TARGETS[int(rng.integers(0, 4))] / (self.H * self.R)
        return item, f, omega, alpha

    def execute(self, inputs):
        (_k, _i, _kind, _n, op), f, omega, alpha = inputs
        rep = grid_ops.chain_check(f, omega, self.cfg, keep_fields=True)
        dom = sectors.domination_ratio(f, alpha, self.BETA, self.R, self.H, self.cfg8,
                                       interior_margin=4.0)
        grid = os.path.join(self.workdir, "f.grd")
        out = os.path.join(self.workdir, f"{op}.grd")
        f.save(grid)
        argv = ["apply", "--op", op, "--grid", grid, "--out", out]
        if op in ("m0", "m1"):
            dirs = os.path.join(self.workdir, "omega.json")
            with open(dirs, "w") as fh:
                json.dump(omega.to_json(), fh)
            argv += ["--directions", dirs, "--radii", "0.25,0.5,1.0", "--spu", "16"]
        elif op == "strong":
            argv += ["--radii", "0.25,0.5,1.0", "--spu", "16"]
        else:
            argv += ["--alpha", repr(alpha), "--r", repr(self.R), "--h", repr(self.H)]
        rc = cli.run(argv)
        g = grid_ops.Grid2D.load(out) if rc == 0 else None
        return rep, dom, rc, g, out

    def check(self, inputs, res):
        (_k, _i, _kind, _n, op), f, omega, alpha = inputs
        rep, dom, rc, g, out = res
        errors = []
        if not rep.max_violation <= 1e-9:
            errors.append(f"chain violation {rep.max_violation:.3e} > 1e-9")
        if not (math.isfinite(dom) and dom >= 0.0):
            errors.append(f"domination ratio {dom}")
        if rc != 0:
            return None, errors + [f"dirmax apply --op {op} exited {rc}"]
        # the CLI config equals the chain config, so m0 and m1 are chain fields
        if op in ("m0", "m1"):
            lib = rep.fields[op]
        elif op == "strong":
            lib = grid_ops.strong_maximal(f, self.cfg)
        else:
            lib = grid_ops.gamma_op(f, alpha, self.R, self.H)
        if not (_same_bits(g.values, lib.values) and g.spacing == lib.spacing):
            errors.append(f"dirmax apply --op {op} differs from the library call")
        return [op, _digest(out)], errors

    def field_side(self):
        return self.p["n"]

    def expected_spans(self, item):
        op = item[4]
        out = ("grid_ops.chain_check>grid_ops.m0", "grid_ops.chain_check>grid_ops.m1",
               "grid_ops.chain_check>grid_ops.m2", "grid_ops.chain_check>lacunary.perpendicular",
               "sectors.domination_ratio>grid_ops.gamma_op",
               "sectors.domination_ratio>sectors.iterated_maximal",
               "sectors.iterated_maximal>grid_ops.m1", "grid_ops.gamma_kernel>kernels.vp_eval",
               "grid_ops.gamma_kernel>kernels.bump_eval", "grid_ops.Grid2D.save",
               "cli.run>grid_ops.Grid2D.load", "grid_ops.Grid2D.load",
               f"cli.run>grid_ops.{self.CLI_FUNCTIONS[op]}")
        if op in ("m0", "m1"):
            out += ("lacunary.DirectionSet.to_json", "cli.run>lacunary.DirectionSet.from_json")
        return out


# ---------------------------------------------------------------------------
# overlap-verify
# ---------------------------------------------------------------------------


class OverlapVerify(Workload):
    """A stream of decompositions: random complete ones (mu uniform in 1..8)
    with exact overlap maxima, and interleaved binary decompositions."""

    name = "overlap-verify"
    SIZES = {
        "full": dict(mus=tuple(range(1, 9)), complete=80, binary=20, n_max=4096),
        "tiny": dict(mus=(1, 2, 3, 4), complete=8, binary=2, n_max=64),
    }
    CLI_EVERY = 10  # every tenth complete decomposition goes through the CLI
    SME_EVERY = 10  # every tenth one with mu <= SME_MU_MAX gets the energy check
    SME_MU_MAX = 6
    SME_SIDE = 128

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.p = self.SIZES[scale]

    def job(self, k):
        p = self.p
        rng = self._rng(k)
        mus, n_c, n_b = p["mus"], p["complete"], p["binary"]
        # each mu equally often; the CLI-bound positions get distinct mus
        pool = list(mus) * (n_c // len(mus))
        cli_pos = list(range(0, n_c, self.CLI_EVERY))
        cli_mus = [int(v) for v in rng.permutation(mus)[: len(cli_pos)]]
        for mu in cli_mus:
            pool.remove(mu)
        rest = iter(int(v) for v in rng.permutation(pool))
        order = [cli_mus[cli_pos.index(i)] if i in cli_pos else next(rest)
                 for i in range(n_c)]
        # binary sizes stratified over 2..n_max
        edges = np.linspace(2, p["n_max"] + 1, n_b + 1).astype(int)
        sizes = [int(rng.integers(edges[j], max(edges[j] + 1, edges[j + 1])))
                 for j in rng.permutation(n_b)]
        items, small = [], 0
        per_binary = n_c // n_b
        for i, mu in enumerate(order):
            sme = mu <= self.SME_MU_MAX and small % self.SME_EVERY == 0
            small += mu <= self.SME_MU_MAX
            items.append(("complete", k, len(items), mu, i in cli_pos, sme))
            if (i + 1) % per_binary == 0 and sizes:
                items.append(("binary", k, len(items), sizes.pop(), False, False))
        return items

    def warmup_item(self):
        return ("complete", WARMUP_JOB, 0, min(6, self.p["mus"][-1]), True, True)

    def prepare(self, item):
        kind, k, i, n, _cli, sme = item
        rng = self._rng(k, i)
        if kind == "binary":
            return item, rng.uniform(0.0, 1.0, n), None
        f = None
        if sme:
            spec = harness.TestFunctionSpec("random_bumps", count=5,
                                            seed=int(rng.integers(0, 2**31)), scale=6.0)
            f = harness.generate(spec, self.SME_SIDE, self.SME_SIDE, 1 / 8)
        return item, rng, f

    def execute(self, inputs):
        (kind, _k, _i, n, use_cli, sme), src, f = inputs
        if kind == "binary":
            return lacunary.binary_decomposition(src).order
        d = lacunary.random_complete_decomposition(src, n)
        exact = sectors.max_overlap_with_argmax(d)
        payload = energy = None
        if use_cli:
            path = os.path.join(self.workdir, "decomp.json")
            out = os.path.join(self.workdir, "overlap.json")
            d.save(path)
            rc = cli.run(["overlap", "--decomp", path, "--out", out])
            payload = (rc, None, None)
            if rc == 0:
                with open(out) as fh:
                    payload = (rc, json.load(fh), _digest(out))
        if sme:
            energy = sectors.strip_multiplier_energy(d, f)
        return exact, payload, energy

    def check(self, inputs, res):
        (kind, _k, _i, n, _cli, _sme), src, _f = inputs
        errors = []
        if kind == "binary":
            bound = int(math.log2(len(set(src.tolist())))) + 2
            if res > bound:
                errors.append(f"binary order {res} > {bound} for N={n}")
            return [n, res], errors
        (nl, nt, al, at), payload, energy = res
        if nl > sectors.MAX_POLE_STRIP_OVERLAP or nt > sectors.MAX_TOP_OVERLAP:
            errors.append(f"overlap ({nl}, {nt}) exceeds (40, 12) at mu={n}")
        record = [n, nl, nt, [float(v).hex() for v in al], [float(v).hex() for v in at]]
        if payload is not None:
            rc, data, digest = payload
            want = {"method": "exact", "n_low": nl, "n_top": nt,
                    "argmax_low": list(al), "argmax_top": list(at)}
            if rc != 0:
                errors.append(f"dirmax overlap exited {rc}")
            elif data != want:
                errors.append(f"dirmax overlap payload differs from the library at mu={n}")
            record.append(digest)
        if energy is not None:
            total, denom, cmax = energy
            bound = sectors.MAX_POLE_STRIP_OVERLAP
            if cmax > bound or total > bound * denom * 1.05:
                errors.append(f"strip energy {total} / {denom}, lattice max {cmax}")
            record.append(cmax)
        return record, errors

    def field_side(self):
        return self.SME_SIDE

    def expected_spans(self, item):
        kind, _k, _i, _n, use_cli, sme = item
        if kind == "binary":
            return ("lacunary.binary_decomposition",)
        out = ("lacunary.random_complete_decomposition", "sectors.max_overlap_with_argmax")
        if use_cli:
            out += ("lacunary.LacunaryDecomposition.save",
                    "lacunary.LacunaryDecomposition.save>lacunary.LacunaryDecomposition.to_json",
                    "cli.run>lacunary.LacunaryDecomposition.load",
                    "cli.run>sectors.max_overlap_with_argmax")
        if sme:
            out += ("sectors.strip_multiplier_energy",)
        return out


WORKLOADS = {w.name: w for w in (NormSweep, OperatorChain, OverlapVerify)}
