from __future__ import annotations

import pickle
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bmm import (
    InsufficientSamplesError,
    ModeStats,
    NumericalError,
    ParameterError,
    build_hierarchy,
    fid,
    fit_balanced_kmeans,
    gaussian_stats,
)
from bmm.gap import EPS, NodeCosts, cost_matrix

from conftest import make_features, one_blas_thread
from oracles import full_cost_matrix, reference_cost_matrix


def stats_1d(mu: float, var: float, count: int = 10) -> ModeStats:
    return ModeStats(mean=np.array([mu]), cov=np.array([[var]]), count=count)


def random_stats(rng, d: int) -> ModeStats:
    a = rng.normal(size=(d, d))
    cov = a @ a.T / d + 0.05 * np.eye(d)
    return ModeStats(mean=rng.normal(size=d), cov=cov, count=50)


def fid_1d_closed_form(mu_a, var_a, mu_b, var_b) -> float:
    return (mu_a - mu_b) ** 2 + (np.sqrt(var_a) - np.sqrt(var_b)) ** 2


def test_gaussian_stats_hand_case():
    fm = make_features([0.0, 2.0])
    s = gaussian_stats(fm, [0, 1])
    assert s.mean[0] == pytest.approx(1.0)
    assert s.cov[0, 0] == pytest.approx(2.0)  # unbiased: ((1)^2 + (1)^2) / (2 - 1)
    assert s.count == 2


def test_gaussian_stats_identical_rows():
    fm = make_features(np.ones((6, 3)) * 4.0)
    s = gaussian_stats(fm, range(6))
    assert np.allclose(s.cov, 0.0)


def test_gaussian_stats_monte_carlo(rng):
    mean = np.array([1.0, -2.0, 0.5])
    a = rng.normal(size=(3, 3))
    cov = a @ a.T / 3 + 0.2 * np.eye(3)
    x = rng.multivariate_normal(mean, cov, size=500)
    fm = make_features(x)
    s = gaussian_stats(fm, np.arange(500))
    assert np.abs(s.mean - mean).max() < 0.15
    assert np.abs(s.cov - cov).max() < 0.15


def test_gaussian_stats_needs_two_rows():
    fm = make_features([1.0, 2.0])
    with pytest.raises(InsufficientSamplesError):
        gaussian_stats(fm, [0])


def test_fid_identity(rng):
    for _ in range(100):
        s = random_stats(rng, int(rng.integers(1, 7)))
        assert fid(s, s) <= 1e-6


def test_fid_1d_known_values():
    assert fid(stats_1d(0, 1), stats_1d(1, 1)) == pytest.approx(1.0, abs=1e-9)
    assert fid(stats_1d(0, 1), stats_1d(0, 4)) == pytest.approx(1.0, abs=1e-9)


def test_fid_1d_closed_form_random(rng):
    for _ in range(100):
        mu_a, mu_b = rng.normal(size=2) * 3
        var_a, var_b = rng.uniform(0.1, 4.0, size=2)
        got = fid(stats_1d(mu_a, var_a), stats_1d(mu_b, var_b))
        assert got == pytest.approx(fid_1d_closed_form(mu_a, var_a, mu_b, var_b), rel=1e-6, abs=1e-9)


def test_fid_diagonal_matches_per_dimension_sum(rng):
    d = 5
    for _ in range(30):
        mu_a, mu_b = rng.normal(size=(2, d))
        var_a, var_b = rng.uniform(0.1, 3.0, size=(2, d))
        a = ModeStats(mean=mu_a, cov=np.diag(var_a), count=20)
        b = ModeStats(mean=mu_b, cov=np.diag(var_b), count=20)
        expected = sum(
            fid_1d_closed_form(mu_a[i], var_a[i], mu_b[i], var_b[i]) for i in range(d)
        )
        assert fid(a, b) == pytest.approx(expected, rel=1e-6)


def test_fid_symmetry_and_nonnegativity(rng):
    for _ in range(50):
        a = random_stats(rng, 4)
        b = random_stats(rng, 4)
        ab, ba = fid(a, b), fid(b, a)
        assert ab >= 0.0 and ba >= 0.0
        assert abs(ab - ba) <= 1e-6 * (1.0 + ab)


def test_fid_translation_sensitivity(rng):
    a = random_stats(rng, 3)
    v = rng.normal(size=3)
    shifted = ModeStats(mean=a.mean + v, cov=a.cov.copy(), count=a.count)
    assert fid(a, shifted) == pytest.approx(float(v @ v), rel=1e-6)


def test_trace_form_matches_product_eigen_oracle(rng):
    """Tr((cov_a cov_b)^1/2) via the symmetric route == eigenvalues of the raw product."""
    for _ in range(40):
        d = int(rng.integers(2, 7))
        a = random_stats(rng, d)
        b = random_stats(rng, d)
        oracle_cross = np.sqrt(np.clip(np.linalg.eigvals(a.cov @ b.cov).real, 0, None)).sum()
        expected = (
            float((a.mean - b.mean) @ (a.mean - b.mean))
            + np.trace(a.cov)
            + np.trace(b.cov)
            - 2.0 * oracle_cross
        )
        assert fid(a, b) == pytest.approx(max(expected, 0.0), rel=1e-6, abs=1e-8)


def test_fid_singular_covariance_is_finite_and_zero_on_self():
    s = ModeStats(mean=np.zeros(3), cov=np.zeros((3, 3)), count=5)
    assert fid(s, s) <= 1e-6


def test_fid_dimension_mismatch():
    with pytest.raises(ParameterError, match="dimension"):
        fid(stats_1d(0, 1), ModeStats(mean=np.zeros(2), cov=np.eye(2), count=5))


def build_tiny_tree(rng):
    fm = make_features(rng.normal(size=(12, 2)))
    return fm, build_hierarchy(fit_balanced_kmeans(fm, 3, seed=0), fm)


def test_cost_matrix_identity_case(rng):
    fm = make_features(rng.normal(size=(6, 2)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 1, seed=0), fm)
    target = [tree.node(0).stats]
    cost = full_cost_matrix(tree, target)
    assert cost.shape == (1, 1)
    assert cost[0, 0] <= 1e-6


def test_cost_matrix_closed_form_1d():
    fm = make_features([0.0, 0.1, 5.0, 5.1])
    tree = build_hierarchy(fit_balanced_kmeans(fm, 2, seed=0), fm)
    targets = [stats_1d(0.0, 1.0), stats_1d(3.0, 0.5)]
    cost = full_cost_matrix(tree, targets)
    assert cost.shape == (2, 3)
    for y, t in enumerate(targets):
        for x in range(tree.node_count):
            expected = fid_1d_closed_form(
                t.mean[0], t.cov[0, 0], tree.means[x, 0], max(tree.covs[x, 0, 0], 1e-6)
            )
            assert cost[y, x] == pytest.approx(expected, rel=1e-6, abs=1e-6)


# Prints the cost matrix bytes of each pickled (tree, targets) case; argv[2] is tests/.
COST_BYTES = """
import pickle, sys
from pathlib import Path
sys.path.insert(0, sys.argv[2])
from oracles import full_cost_matrix
for tree, targets in pickle.loads(Path(sys.argv[1]).read_bytes()):
    sys.stdout.buffer.write(full_cost_matrix(tree, targets).tobytes())
"""


def test_cost_matrix_thread_invariance(rng, tmp_path):
    """Bit-identical to the per-pair reference, and the same bytes with
    OpenBLAS held to one thread as at its default thread count.

    d=9 and d=33 run numpy's unrolled and pairwise sums; node 0's zero
    covariance and the rank-1 first target take the ridge path.
    """
    cases, default = [], []
    for d in (2, 9, 33):
        fm = make_features(rng.normal(size=(12, d)))
        tree = build_hierarchy(fit_balanced_kmeans(fm, 3, seed=0), fm)
        tree.covs[0] = 0.0
        tree.spectra = np.linalg.eigvalsh(tree.covs)
        direction = rng.normal(size=(d, 1))
        rank_one = ModeStats(mean=rng.normal(size=d), cov=direction @ direction.T, count=5)
        targets = [rank_one] + [random_stats(rng, d) for _ in range(3)]
        cost = full_cost_matrix(tree, targets)
        assert cost.tobytes() == reference_cost_matrix(tree, targets).tobytes()
        cases.append((tree, targets))
        default.append(cost.tobytes())
    path = tmp_path / "cases.pkl"
    path.write_bytes(pickle.dumps(cases))
    tests = str(Path(__file__).resolve().parent)
    assert one_blas_thread("-c", COST_BYTES, str(path), tests) == b"".join(default)


TODO_SHAPE = (3, 7)  # three target modes against the 7 nodes of a J=4 tree
ONE_ROW = np.zeros(TODO_SHAPE, dtype=bool)
ONE_ROW[1, ::2] = True


@settings(max_examples=60, deadline=None)
@given(todo=arrays(bool, TODO_SHAPE), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(todo=np.ones(TODO_SHAPE, dtype=bool), d=3, seed=0)  # every pair
@example(todo=np.zeros(TODO_SHAPE, dtype=bool), d=3, seed=0)  # none
@example(todo=np.eye(1, TODO_SHAPE[1], 6, dtype=bool).repeat(3, axis=0), d=2, seed=1)  # a column
@example(todo=ONE_ROW, d=5, seed=2)  # all-false rows around a partial one
def test_cost_matrix_gives_the_asked_pairs_in_row_major_order(todo, d, seed):
    """The costs of the pairs todo selects, bit for bit those of the per-pair
    reference, one per selected pair; rank-deficient nodes (4 rows in d=5)
    take the ridge."""
    rng = np.random.default_rng(seed)
    fm = make_features(rng.normal(size=(16, d)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 4, seed=0), fm)
    modes = [random_stats(rng, d) for _ in range(TODO_SHAPE[0])]
    cost = cost_matrix(NodeCosts(tree), modes, todo)
    assert cost.size == todo.sum()
    assert cost.tobytes() == reference_cost_matrix(tree, modes)[todo].tobytes()


def rotation(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def spectrum(rng, d: int, rank: int) -> np.ndarray:
    """d eigenvalues spread over seven decades, descending, all but `rank` of them zero."""
    values = np.zeros(d)
    values[:rank] = np.sort(10.0 ** rng.uniform(-3, 4, size=rank))[::-1]
    return values


def spd(rng, d: int, rank: int) -> np.ndarray:
    """A randomly rotated PSD matrix of the given rank."""
    q = rotation(rng, d)
    m = (q * spectrum(rng, d, rank)) @ q.T
    return (m + m.T) / 2.0


BOUND_CASES = ("random", "identical", "scaled", "commuting-diagonal", "rank-deficient")


def bound_case(rng, case: str, d: int) -> tuple[ModeStats, list[ModeStats]]:
    """A target mode and four node modes of one kind.

    "scaled" nodes are B = cA and "commuting-diagonal" ones share the target's
    diagonal basis and eigenvalue order, so the bound is tight there;
    "rank-deficient" covariances take the EPS ridge. Node means sit at, near
    or far from the target's.
    """
    rank = int(rng.integers(1, d + 1)) if case != "random" else d
    if case == "commuting-diagonal":
        base = np.diag(spectrum(rng, d, rank))
    else:
        base = spd(rng, d, rank)
    mean = rng.normal(size=d) * rng.choice([0.0, 1.0, 100.0])
    nodes = []
    for _ in range(4):
        if case in ("random", "rank-deficient"):
            cov = spd(rng, d, rank)
        elif case == "identical":
            cov = base.copy()
        elif case == "scaled":
            cov = base * 10.0 ** rng.uniform(-3, 3)
        else:
            cov = np.diag(spectrum(rng, d, int(rng.integers(1, d + 1))))
        shift = rng.normal(size=d) * rng.choice([0.0, 1e-4, 1.0])
        nodes.append(ModeStats(mean=mean + shift, cov=cov, count=10))
    return ModeStats(mean=mean, cov=base, count=10), nodes


def node_costs(nodes: list[ModeStats]) -> NodeCosts:
    covs = np.stack([n.cov for n in nodes])
    stack = SimpleNamespace(
        means=np.stack([n.mean for n in nodes]), covs=covs, spectra=np.linalg.eigvalsh(covs)
    )
    return NodeCosts(stack)


def scaled(mode: ModeStats, factor: float) -> ModeStats:
    """The mode with its covariance scaled by `factor` and its mean by its root."""
    return ModeStats(mean=mode.mean * np.sqrt(factor), cov=mode.cov * factor, count=mode.count)


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from(BOUND_CASES),
    d=st.integers(1, 8),
    log_eps=st.floats(-14.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lower_bound_is_below_the_computed_cost(case, d, log_eps, seed):
    """FID is homogeneous: modes whose covariances are scaled by
    EPS / 10**log_eps (their means by its root) meet the EPS ridge as the
    unscaled ones would meet a ridge of 10**log_eps."""
    rng = np.random.default_rng(seed)
    target, nodes = bound_case(rng, case, d)
    factor = EPS / 10.0**log_eps
    target, nodes = scaled(target, factor), [scaled(node, factor) for node in nodes]
    costs = node_costs(nodes)
    bounds = costs.lower_bounds([target])
    assert bounds is not None
    computed = cost_matrix(costs, [target], np.ones((1, len(nodes)), dtype=bool))
    assert (bounds[0] <= computed).all(), (bounds[0], computed)
    assert (bounds >= 0.0).all()
    if case in ("identical", "scaled", "commuting-diagonal"):
        # the eigenvalues pair up as in the exact distance: only the slack is left
        scale = computed + np.trace(target.cov) + np.trace(costs.covs, axis1=1, axis2=2) + d * EPS
        assert (computed - bounds[0] <= 1e-4 * scale).all()


def test_lower_bound_refuses_inputs_it_cannot_bound(rng):
    target, nodes = bound_case(rng, "random", 3)
    assert node_costs(nodes).lower_bounds([target]) is not None
    assert node_costs(nodes).lower_bounds([]) is None
    wide = ModeStats(mean=np.zeros(4), cov=np.eye(4), count=5)
    assert node_costs(nodes).lower_bounds([wide]) is None
    skew = ModeStats(mean=target.mean, cov=target.cov + np.triu(np.ones((3, 3)), 1), count=5)
    assert node_costs(nodes).lower_bounds([skew]) is None
    negative = ModeStats(mean=target.mean, cov=-np.eye(3), count=5)
    assert node_costs(nodes).lower_bounds([negative]) is None
    far = ModeStats(mean=target.mean + 1e160, cov=target.cov, count=5)
    assert node_costs(nodes).lower_bounds([far]) is None
    # the product inside the kernel could overflow, though every sum is finite
    huge = ModeStats(mean=target.mean, cov=np.eye(3) * 1e200, count=5)
    assert node_costs(nodes + [huge]).lower_bounds([huge]) is None


@pytest.mark.parametrize("size", [1e200, 1e308])
def test_huge_covariances_are_numerical_error(size):
    """Huge but finite covariances overflow the kernel's covariance product
    (at 1e308 the traces too): `fid` and `cost_matrix` raise NumericalError,
    `cost_matrix` naming the target mode and the node column, and no
    RuntimeWarning escapes."""
    huge = ModeStats(mean=np.zeros(2), cov=np.eye(2) * size, count=5)
    unit = ModeStats(mean=np.zeros(2), cov=np.eye(2), count=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match=r"^covariance product .* overflows \(d=2\)"):
            fid(huge, huge)
        # huge against the unit node is finite; the huge node's column overflows
        with pytest.raises(NumericalError,
                           match=r"^target mode 0: .* overflows for node column 1 \(d=2\)"):
            cost_matrix(node_costs([unit, huge]), [huge], np.ones((1, 2), dtype=bool))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
