"""The four benchmark workloads.

Each workload turns a seed into a list of jobs (set-up), runs one job as one
public bilinctrl call (timed), checks the job's output (untimed), and has a
traced variant whose spans sit around the benchmark's own calls into the
library.  Jobs come in fixed blocks of kinds, so every run sees the same mix
whatever the seed; the seed only changes the random systems, targets and
sampling seeds inside the blocks, apart from the few inputs that stay fixed
because their cost or memory varies too much between draws.  See README.md
for why each workload exists and which layer each one loads.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from bilinctrl import analysis, cli, foliation, matlie, model, reach

from spans import NullTracer

NULL = NullTracer()
HERE = Path(__file__).resolve().parent
CLOUD_SIZES = json.loads((HERE / "cloud_sizes.json").read_text())

E12 = ((0.0, 1.0), (0.0, 0.0))
E21 = ((0.0, 0.0), (1.0, 0.0))
SHIFT3 = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
LZ = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@dataclass
class Job:
    kind: str
    spec: object
    params: dict = field(default_factory=dict)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _digest(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


class Workload:
    """A block of job kinds repeated ``blocks`` times in set-up."""

    name = ""
    block: tuple = ()
    blocks = 1
    # True when the traced job is a replay that makes other calls than the
    # timed job; the replay is then also timed untraced.
    replays = False

    def make_inputs(self, seed: int, workdir: Path) -> list[Job]:
        raise NotImplementedError

    def _run(self, job: Job, tr):
        raise NotImplementedError

    def run(self, job: Job):
        return self._run(job, NULL)

    def run_traced(self, job: Job, tr):
        return self._run(job, tr)

    def collect(self, job: Job, out):
        """Turn a timed call's return value into the checked result."""
        return out

    def check(self, job: Job, result) -> str | None:
        raise NotImplementedError

    def signature(self, result):
        raise NotImplementedError

    def layer_extras(self, jobs, seed: int, latencies, replays) -> dict:
        """Per-layer times (seconds) measured outside the traced jobs."""
        return {}


# --- audit: the CLI decision pipeline on random systems and the builtins -----

AUDIT_ARGS = ("--samples", "2000", "--budget", "30000")
AUDIT_BUDGETS = analysis.AnalysisBudgets(samples=2000, reach_budget=30000)
AUDIT_CERTIFICATES = {"so3": "rank_drop_witness",
                      "expanding_pair": "monotone_norm",
                      "identity_only": "rank_drop_witness"}


def _check_certificate(spec, cert, tol: float) -> str | None:
    n = spec.n
    if cert["kind"] == "rank_drop_witness":
        basis = matlie.lie_closure(spec.family.matrices, tol=tol)
        w = np.asarray(cert["witness"], dtype=float)
        if basis.dim < n:
            return None
        s = np.linalg.svd(np.column_stack([b @ w for b in basis.basis]),
                          compute_uv=False)
        if not s[n - 1] <= tol * s[0]:
            return f"rank drop not reproduced: sigma_n {s[n - 1]!r}, sigma_max {s[0]!r}"
        return None
    if cert["kind"] == "monotone_norm":
        eigs = [np.linalg.eigvalsh((m + m.T) / 2.0) for m in spec.family.matrices]
        reported = cert["sym_eigenvalues"]
        if len(reported) != len(eigs) or not all(
                np.allclose(e, r, rtol=1e-9, atol=1e-12) for e, r in zip(eigs, reported)):
            return "symmetric-part eigenvalues differ from the report"
        flat = np.concatenate(eigs)
        ok = {"nondecreasing": flat.min() >= -1e-12,
              "nonincreasing": flat.max() <= 1e-12,
              "constant": np.abs(flat).max() <= 1e-12}.get(cert["direction"], False)
        return None if ok else f"eigenvalue signs contradict {cert['direction']!r}"
    return f"unknown certificate kind {cert['kind']!r}"


class Audit(Workload):
    """``bilinctrl analyze`` in-process, one system per job."""

    name = "audit"
    block = ("so3", 2, 3, "planar_jd", 2, 3, "expanding_pair", 2, 3,
             "identity_only", 2, 5)
    blocks = 24
    replays = True

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        # The coverage of an n = 5 cloud holds a points-by-cells matrix for the
        # points inside the annulus, and that share varies threefold between
        # random systems, so the process's peak memory would vary with the
        # few n = 5 systems a run meets.  They come from a fixed generator
        # instead: every seed analyses the same n = 5 systems.
        fixed = np.random.default_rng([0, 1])
        jobs = []
        for _ in range(self.blocks):
            for slot in self.block:
                k = len(jobs)
                src = fixed if slot == 5 else rng
                if isinstance(slot, str):
                    spec = model.builtin_corpus(slot)
                else:
                    mats = src.standard_normal((2, slot, slot))
                    spec = model.bilinear_system(tuple(mats),
                                                 name=f"random(n={slot},job={k})")
                text = model.serialize_system(spec)
                path = workdir / f"audit_{k}.json"
                path.write_text(text)
                parsed = model.parse_system(text)
                jobs.append(Job(
                    slot if isinstance(slot, str) else f"random{slot}", parsed,
                    {"path": str(path), "out": str(workdir / f"audit_{k}.out.json"),
                     "seed": _seed(src)}))
        return jobs

    def run(self, job):
        p = job.params
        return cli.main(["analyze", "--spec", p["path"], *AUDIT_ARGS,
                         "--seed", str(p["seed"]), "--out", p["out"]])

    def collect(self, job, code):
        result = {"code": code, "conclusion": None, "kind": None, "report": None}
        if code in (cli.EXIT_OK, cli.EXIT_UNDETERMINED):
            report = json.loads(Path(job.params["out"]).read_text())
            verdict = report["verdict"]
            cert = verdict["certificate"]
            result.update(report=report, conclusion=verdict["conclusion"],
                          kind=cert["kind"] if cert else None)
        return result

    def run_traced(self, job, tr):
        """Stage-by-stage replay of the analyze pipeline through the public
        functions, with one span per stage."""
        b = replace(AUDIT_BUDGETS, seed=job.params["seed"])
        with tr.span("model.parse_system"):
            spec = model.parse_system(Path(job.params["path"]).read_text())
        with tr.span("matlie.lie_closure"):
            basis = matlie.lie_closure(spec.family.matrices, tol=b.tol,
                                       depth_cap=b.closure_depth_cap)
        tr.count("matlie.lie_closure.dim", basis.dim)
        with tr.span("analysis.orbit_dimension_profile"):
            analysis.orbit_dimension_profile(spec, samples=b.profile_samples,
                                             seed=b.seed, tol=b.tol, basis=basis)
        with tr.span("analysis.angular_accessibility"):
            analysis.angular_accessibility(spec, samples=min(b.samples, 4096),
                                           seed=b.seed, tol=b.tol, basis=basis)
        conclusion, kind = None, None
        if basis.converged:
            with tr.span("analysis.min_rank_search"):
                mr = analysis.min_rank_search(spec, restarts=b.restarts,
                                              seed=b.seed, tol=b.tol, basis=basis)
            if mr.is_witness:
                with tr.span("matlie.evaluate_at"):
                    matlie.evaluate_at(basis, mr.argmin, tol=b.tol)
                conclusion, kind = "not_controllable", "rank_drop_witness"
        if conclusion is None:
            with tr.span("analysis.monotone_norm_certificate"):
                cert = analysis.monotone_norm_certificate(spec.family)
            if cert is not None:
                conclusion, kind = "not_controllable", "monotone_norm"
        if conclusion is None:
            # Every audit family (the bilinear builtins, Gaussian random
            # matrices) is diagonalizable.
            with tr.span("reach.sample_attainable.diag"):
                cloud = reach.sample_attainable(
                    spec, np.eye(spec.n)[0], b.reach_budget, b.seed,
                    max_segments=b.max_segments, duration_scale=b.duration_scale)
            tr.count("reach.sample_attainable.points", len(cloud))
            with tr.span("reach.coverage"):
                grid = reach.CoverageGrid(spec.n, angular_cells=b.angular_cells,
                                          radial_bins=b.radial_bins, r_min=b.r_min,
                                          r_max=b.r_max, antipodal=b.projective)
                rep = reach.coverage(cloud, grid)
            tr.count("reach.coverage.points", rep.num_points)
            tr.count("reach.coverage.in_annulus", rep.num_in_annulus)
            dense = rep.fraction >= b.coverage_threshold and basis.converged
            conclusion = "controllable" if dense else "undetermined"
        tr.count("analysis.decisive", conclusion != "undetermined")
        return {"conclusion": conclusion, "kind": kind}

    def check(self, job, result):
        code = result["code"]
        if code not in (cli.EXIT_OK, cli.EXIT_UNDETERMINED):
            return f"analyze exited with code {code}"
        verdict = result["report"]["verdict"]
        conclusion, cert = verdict["conclusion"], verdict["certificate"]
        if (code == cli.EXIT_UNDETERMINED) != (conclusion == "undetermined"):
            return f"exit code {code} does not match conclusion {conclusion!r}"
        if job.kind in AUDIT_CERTIFICATES:
            expected = AUDIT_CERTIFICATES[job.kind]
            if conclusion != "not_controllable" or result["kind"] != expected:
                return f"{job.kind}: expected a {expected} certificate, got " \
                       f"{conclusion!r} / {result['kind']!r}"
        if job.kind == "planar_jd" and conclusion == "not_controllable":
            return "planar_jd is controllable but came out not_controllable"
        if conclusion == "not_controllable":
            if cert is None:
                return "not_controllable without a certificate"
            return _check_certificate(job.spec, cert, AUDIT_BUDGETS.tol)
        if cert is not None:
            return f"{conclusion} verdict carries a certificate"
        if conclusion == "controllable":
            if set(verdict["orbit_dims"]) != {job.spec.n}:
                return f"controllable with orbit dims {sorted(set(verdict['orbit_dims']))}"
            if verdict["evidence"]["fraction"] < AUDIT_BUDGETS.coverage_threshold:
                return "controllable with coverage below the threshold"
        elif conclusion != "undetermined":
            return f"unknown conclusion {conclusion!r}"
        return None

    def signature(self, result):
        return result["conclusion"], result["kind"]

    def layer_extras(self, jobs, seed, latencies, replays):
        """cli.main's own time: untraced analyze time minus the untraced
        replay (parse and decision stages) of the same job."""
        gap = sum(lat - rep for lat, rep in zip(latencies, replays))
        return {"cli.main.self_s": gap / len(latencies)}


# --- flows: attainable-set sampling plus coverage across family kinds ---------

FLOWS_BUDGET = CLOUD_SIZES["budget"]
SMOOTH_STARTS = {"example1_up": (0.0, 1.0), "example1_down": (0.0, -1.0)}
# The sampling path each family takes, known from its matrices: defective
# generators go through the per-row expm fallback, smooth fields through RK4.
FLOW_PATH = {"planar_jd": "diag", "expanding_pair": "diag", "so3": "diag",
             "random5": "diag", "e12e21": "defective", "shift_lz": "defective",
             "example1_up": "smooth", "example1_down": "smooth"}


class Flows(Workload):
    """``sample_attainable`` + ``coverage`` at one budget for every family."""

    name = "flows"
    block = ("planar", "so3", "random5", "e12e21", "shift_lz", "example1_up",
             "example1_down")
    blocks = 8

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        fixed = {name: model.builtin_corpus(name) for name in
                 ("planar_jd", "expanding_pair", "so3")}
        fixed["example1_up"] = fixed["example1_down"] = model.builtin_corpus("example1")
        fixed["e12e21"] = model.bilinear_system((E12, E21), name="e12e21")
        fixed["shift_lz"] = model.bilinear_system((SHIFT3, LZ), name="shift_lz")
        jobs = []
        for b in range(self.blocks):
            for slot in self.block:
                kind = ("planar_jd", "expanding_pair")[b % 2] if slot == "planar" else slot
                if kind == "random5":
                    spec = model.bilinear_system(tuple(rng.standard_normal((2, 5, 5))),
                                                 name=f"random(n=5,job={len(jobs)})")
                else:
                    spec = fixed[kind]
                x0 = np.array(SMOOTH_STARTS[kind]) if kind in SMOOTH_STARTS \
                    else np.eye(spec.n)[0]
                jobs.append(Job(kind, spec, {
                    "x0": x0, "seed": int(rng.integers(0, len(CLOUD_SIZES["sizes"])))}))
        return jobs

    def _run(self, job, tr):
        p = job.params
        with tr.span(f"reach.sample_attainable.{FLOW_PATH[job.kind]}"):
            cloud = reach.sample_attainable(job.spec, p["x0"], FLOWS_BUDGET, p["seed"])
        tr.count("reach.sample_attainable.points", len(cloud))
        with tr.span("reach.coverage"):
            rep = reach.coverage(cloud, reach.CoverageGrid(job.spec.n))
        tr.count("reach.coverage.points", rep.num_points)
        tr.count("reach.coverage.in_annulus", rep.num_in_annulus)
        return cloud, rep

    def check(self, job, result):
        cloud, rep = result
        expected = CLOUD_SIZES["sizes"][job.params["seed"]]
        if cloud.shape != (expected, job.spec.n):
            return f"cloud shape {cloud.shape}, recorded size {expected}"
        if not np.all(np.isfinite(cloud)):
            return "cloud has non-finite points"
        if rep.num_points != expected:
            return f"coverage saw {rep.num_points} points of {expected}"
        norms = np.linalg.norm(cloud, axis=1)
        if job.kind == "so3" and np.max(np.abs(norms - 1.0)) > 1e-9:
            return f"so3 norm deviation {np.max(np.abs(norms - 1.0))!r}"
        if job.kind == "expanding_pair" and norms.min() < 1.0 - 1e-12:
            return f"expanding_pair norm fell to {norms.min()!r}"
        if job.kind == "example1_down":
            # The gates vanish on the axis below 0, so from (0, -1) the ray
            # {x = 0, y < -1} is never reached.  Points near it are: going
            # down at small |x| is slow but possible.
            on_ray = (cloud[:, 0] == 0.0) & (cloud[:, 1] < -1.0)
            if on_ray.any():
                return f"example1 reached the shielded ray at {cloud[on_ray][0]!r}"
        return None

    def signature(self, result):
        cloud, rep = result
        return cloud.shape, _digest(cloud), rep.hit_count


# --- reach_search: targeted reachability by serial stochastic descent --------

REACH_BUDGET = 600
# approx_reach_test explores max(budget // 4, 256) schedules in one batch, so
# a budget of 400 leaves 144 of example1's evaluations to the serial
# descent, one solve_ivp call each, and those take most of the job's time.
# Short schedules keep each call cheap.
REACH_BUDGET_SMOOTH = 400
REACH_SEGMENTS_SMOOTH = 6


class ReachSearch(Workload):
    """``approx_reach_test`` with hard or unreachable targets."""

    name = "reach_search"
    block = ("planar_jd", "random3", "e12e21", "random3", "example1")
    blocks = 16

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        # One example1 search costs anywhere from 0.3 to 1.4 s, depending on
        # the schedules its descent happens to try, so a run's dozen searches
        # would carry that spread from seed to seed.  They come from a fixed
        # generator instead: every seed runs the same example1 searches.
        fixed = np.random.default_rng([0, 3])
        planar = model.builtin_corpus("planar_jd")
        e12e21 = model.bilinear_system((E12, E21), name="e12e21")
        example1 = model.builtin_corpus("example1")
        jobs = []
        for _ in range(self.blocks):
            for kind in self.block:
                src = fixed if kind == "example1" else rng
                radius = float(np.exp(src.uniform(np.log(0.5), np.log(2.0))))
                p = {"eps": 1e-2, "budget": REACH_BUDGET, "max_segments": 20,
                     "unreachable": False}
                if kind == "planar_jd":
                    ang = rng.uniform(0.0, 2.0 * np.pi)
                    spec, x0 = planar, np.array([1.0, 0.0])
                    target = radius * np.array([np.cos(ang), np.sin(ang)])
                    p["eps"] = 1e-3
                elif kind == "random3":
                    spec = model.bilinear_system(tuple(rng.standard_normal((2, 3, 3))),
                                                 name=f"random(n=3,job={len(jobs)})")
                    x0 = np.eye(3)[0]
                    u = rng.standard_normal(3)
                    target = radius * u / np.linalg.norm(u)
                elif kind == "e12e21":
                    # From (1, 0) the closed positive quadrant is invariant.
                    spec, x0 = e12e21, np.array([1.0, 0.0])
                    target = -rng.uniform(0.5, 1.5, size=2)
                    p["unreachable"] = True
                else:
                    # The ray {x = 0, y < -1} below the start is shielded.
                    spec, x0 = example1, np.array([0.0, -1.0])
                    target = np.array([0.0, -1.5 - radius])
                    p.update(budget=REACH_BUDGET_SMOOTH,
                             max_segments=REACH_SEGMENTS_SMOOTH)
                p.update(x0=x0, target=target, seed=_seed(src))
                jobs.append(Job(kind, spec, p))
        return jobs

    def _run(self, job, tr):
        p = job.params
        with tr.span("reach.approx_reach_test"):
            res = reach.approx_reach_test(job.spec, p["x0"], p["target"], p["eps"],
                                          p["budget"], p["seed"],
                                          max_segments=p["max_segments"])
        tr.count("reach.approx_reach_test.evaluations", res.evaluations)
        tr.count("reach.approx_reach_test.hit", res.hit)
        return res

    def check(self, job, res):
        p = job.params
        if not 1 <= res.evaluations <= p["budget"]:
            return f"{res.evaluations} evaluations for a budget of {p['budget']}"
        if not np.isfinite(res.distance):
            return "non-finite distance"
        if not res.hit:
            return None if res.witness is None else "miss with a witness"
        if p["unreachable"]:
            return f"hit an unreachable target at distance {res.distance!r}"
        end = reach.simulate(job.spec, res.witness, p["x0"]).endpoint
        gap = float(np.linalg.norm(end - p["target"]))
        return None if gap <= p["eps"] else f"witness replay lands {gap!r} away"

    def signature(self, res):
        return res.hit, res.evaluations, res.distance

    def layer_extras(self, jobs, seed, latencies, replays):
        """Seconds per ``simulate`` call on a fixed seeded batch of schedules
        for the bilinear systems of the first block."""
        rng = np.random.default_rng([seed, 7])
        cases = []
        for job in jobs[:len(self.block)]:
            if job.spec.is_bilinear:
                for _ in range(50):
                    segs = tuple((int(rng.integers(0, job.spec.num_fields)),
                                  float(rng.exponential(0.5)))
                                 for _ in range(int(rng.integers(1, 21))))
                    cases.append((job.spec, model.ControlSchedule(segs), job.params["x0"]))
        start = time.perf_counter()
        for spec, schedule, x0 in cases:
            reach.simulate(spec, schedule, x0)
        return {"reach.simulate.per_call_s": (time.perf_counter() - start) / len(cases)}


# --- leaves: first returns of radial leaf fields -----------------------------

THETA_SAMPLES = 64  # the library default
RADIAL_GRAPH_RADIUS = float(np.exp(-0.6))


class Leaves(Workload):
    """``first_return_constancy`` / ``arc_family`` on four leaf fields."""

    name = "leaves"
    block = ("sphere3_arcs", "radial_graph", "so3_orbit", "sphere4")
    blocks = 8

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        distr = {"sphere3_arcs": foliation.sphere_distribution(3),
                 "sphere4": foliation.sphere_distribution(4),
                 "radial_graph": foliation.radial_graph_distribution(3, slope=0.3),
                 "so3_orbit": model.builtin_corpus("so3")}
        jobs = []
        for _ in range(self.blocks):
            for kind in self.block:
                radius = RADIAL_GRAPH_RADIUS if kind.startswith("radial") else 1.0
                jobs.append(Job(kind, distr[kind], {"seed": _seed(rng),
                                                    "radius": radius}))
        return jobs

    def _run(self, job, tr):
        distr = job.spec
        if job.kind == "so3_orbit":
            with tr.span("matlie.lie_closure"):
                basis = matlie.lie_closure(distr.family.matrices)
            tr.count("matlie.lie_closure.dim", basis.dim)
            distr = foliation.orbit_tangent_distribution(job.spec, basis=basis)
        with tr.span("foliation.first_return"):
            if job.kind.endswith("_arcs"):
                res = foliation.arc_family(distr, theta_samples=THETA_SAMPLES,
                                           seed=job.params["seed"])
            else:
                res = foliation.first_return_constancy(
                    distr, theta_samples=THETA_SAMPLES, seed=job.params["seed"])
        tr.count("foliation.first_return.arc_points",
                 sum(len(r.arc_points) for r in res.results))
        return res

    def check(self, job, res):
        if len(res.results) != THETA_SAMPLES:
            return f"{len(res.results)} returns for {THETA_SAMPLES} sections"
        if not res.max_deviation <= 1e-6 * res.mean_radius:
            return f"return radii vary by {res.max_deviation!r}"
        tol = 1e-5 if job.kind.startswith("radial") else 1e-6
        if abs(res.mean_radius - job.params["radius"]) > tol:
            return f"mean return radius {res.mean_radius!r}, expected " \
                   f"{job.params['radius']!r}"
        return None

    def signature(self, res):
        return res.mean_radius, res.max_deviation, \
            sum(len(r.arc_points) for r in res.results)


WORKLOADS = {w.name: w for w in (Audit, Flows, ReachSearch, Leaves)}
