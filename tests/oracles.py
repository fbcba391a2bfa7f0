"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes model quantities from raw data lists with scipy
densities and textbook formulas, sharing no code path with the package: the
conjugate updates use the literal (uncentered) rate formula, densities come
from scipy.stats.t, and sequential quantities walk explicit data subsets
instead of sufficient statistics.  The exceptions say so: the bit-exact
full-MH references (:func:`two_pass_log_ratio`, :func:`two_pass_sweep_z`) and
the scalar forecast rollout run the package's own model code, and
:func:`posterior_params` (so :func:`student_t`) runs the package's scalar
posterior update.  The CLI output references (:func:`forecast_csv_rows`,
:func:`forecast_summary`, :func:`impute_csv_rows`) format given draws one
element and one series at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.stats

from trcrp.conjugate import LgammaTable, NigHyper, _posterior
from trcrp.mcmc import NEW_REGIME, propose_z
from trcrp.model import cell_layout, prefix_stats
from trcrp.predict import QUANTILES


def value(panel, n, t):
    """Series n's value at time t (t in -window+1 .. T); NaN where missing."""
    return float(panel.values[n, panel.window + t - 1])


def seen(panel, n, t):
    """Whether series n is observed at time t."""
    return bool(panel.observed[n, panel.window + t - 1])


def logsumexp(values):
    """Log-sum-exp of a sequence of floats, as a float."""
    return float(scipy.special.logsumexp(values))


def naive_posterior(m, V, a, b, data):
    """Textbook NIG update, literal uncentered form."""
    n = len(data)
    if n == 0:
        return m, V, a, b
    total = sum(data)
    total_sq = sum(x * x for x in data)
    v_post = 1.0 / (1.0 / V + n)
    m_post = v_post * (m / V + total)
    a_post = a + n / 2.0
    b_post = b + 0.5 * (m * m / V + total_sq - m_post * m_post / v_post)
    return m_post, v_post, a_post, b_post


def naive_predictive_logpdf(m, V, a, b, data, x):
    """Student-T posterior predictive via scipy."""
    m_p, v_p, a_p, b_p = naive_posterior(m, V, a, b, data)
    scale = math.sqrt(b_p * (1.0 + v_p) / a_p)
    return float(scipy.stats.t.logpdf(x, df=2.0 * a_p, loc=m_p, scale=scale))


class StudentT(NamedTuple):
    """Location-scale Student-T: ``dof`` degrees of freedom, squared scale."""

    dof: float
    loc: float
    scale_sq: float

    def sample(self, rng) -> float:
        return self.loc + math.sqrt(self.scale_sq) * rng.standard_t(self.dof)


def posterior_params(hyper, stats) -> NigHyper:
    """``hyper`` conditioned on the data summarized by ``stats``, by the
    package's scalar posterior update."""
    return NigHyper(
        *_posterior(hyper.m, hyper.V, hyper.a, hyper.b, stats.count, stats.sum, stats.sum_sq)
    )


def student_t(hyper, stats) -> StudentT:
    """The Student-T posterior predictive of a cell with NIG ``hyper`` and ``stats``."""
    post = posterior_params(hyper, stats)
    return StudentT(2.0 * post.a, post.m, post.b * (1.0 + post.V) / post.a)


def canonical_sequences(length):
    """All regime sequences in first-appearance order (one per set partition)."""
    out = []

    def rec(prefix):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        top = max(prefix) if prefix else 0
        for label in range(1, top + 2):
            rec(prefix + [label])

    rec([])
    return out


def exact_crp_log_mass(z, alpha):
    """CRP mass of the partition encoded by sequence z (label-invariant)."""
    sizes = [list(z).count(k) for k in sorted(set(z))]
    total = 0.0
    for s in sizes:
        total += math.log(alpha) + math.lgamma(s)
    total -= math.lgamma(alpha + len(z)) - math.lgamma(alpha)
    return total


def naive_group_loglik(z, series, alpha, hypers, panel, include_emission=True):
    """Sequential collapsed loglik of one group, from raw data subsets.

    ``hypers[n]`` is ``(emission_params, [lag_params...])`` with params as
    (m, V, a, b) tuples.  Walks t = 1..T; at each step enumerates the blocks
    seen so far plus a fresh one, evaluating cohesion and emission predictives
    from explicitly collected data lists (observed cells only).
    """
    p = panel.window
    steps = panel.num_steps
    emission_data = {}  # (n, block) -> [values]
    lag_data = {}  # (n, block, offset) -> [values]
    blocks = []  # block labels in order of first appearance, parallel counts
    counts = {}
    total = 0.0
    for t in range(1, steps + 1):
        options = list(blocks) + ["new"]
        weights = []
        for opt in options:
            if opt == "new":
                w = math.log(alpha)
            else:
                w = math.log(counts[opt])
            for n in series:
                em, lags = hypers[n]
                for i in range(1, p + 1):
                    if seen(panel, n, t - i):
                        key = (n, opt, i)
                        data = lag_data.get(key, []) if opt != "new" else []
                        w += naive_predictive_logpdf(*lags[i - 1], data, value(panel, n, t - i))
            weights.append(w)
        zt = z[t - 1]
        idx = blocks.index(zt) if zt in blocks else len(blocks)
        lse = logsumexp(weights)
        total += weights[idx] - lse
        if include_emission:
            for n in series:
                em, lags = hypers[n]
                if seen(panel, n, t):
                    data = emission_data.get((n, zt), [])
                    total += naive_predictive_logpdf(*em, data, value(panel, n, t))
        # fold time t into its block
        if zt not in blocks:
            blocks.append(zt)
            counts[zt] = 0
        counts[zt] += 1
        for n in series:
            if seen(panel, n, t):
                emission_data.setdefault((n, zt), []).append(value(panel, n, t))
            for i in range(1, p + 1):
                if seen(panel, n, t - i):
                    lag_data.setdefault((n, zt, i), []).append(value(panel, n, t - i))
    return total


def naive_log_joint(state_desc, panel, hypers):
    """Full collapsed log joint from a plain description.

    ``state_desc`` is (alpha0, assignments, [(alpha_m, z_m), ...]) with
    1-based group labels; hypers as in :func:`naive_group_loglik`.
    """
    alpha0, assignments, groups = state_desc
    total = -alpha0  # Gamma(1,1) log prior
    sizes = [assignments.count(m) for m in sorted(set(assignments))]
    for s in sizes:
        total += math.log(alpha0) + math.lgamma(s)
    total -= math.lgamma(alpha0 + len(assignments)) - math.lgamma(alpha0)
    for m, (alpha_m, z_m) in enumerate(groups, start=1):
        members = [n for n, c in enumerate(assignments) if c == m]
        total += -alpha_m
        total += naive_group_loglik(z_m, members, alpha_m, hypers, panel)
    return total


def enumerate_posterior(panel, series, alpha, hypers):
    """Exact posterior over regime partitions of a small panel (one group)."""
    seqs = canonical_sequences(panel.num_steps)
    logliks = np.array(
        [naive_group_loglik(z, series, alpha, hypers, panel) for z in seqs]
    )
    probs = np.exp(logliks - scipy.special.logsumexp(logliks))
    return {z: float(pr) for z, pr in zip(seqs, probs)}, {
        z: float(ll) for z, ll in zip(seqs, logliks)
    }


def canonical_partition(z):
    """Relabel a sequence by first appearance so partitions compare equal."""
    mapping = {}
    out = []
    for label in z:
        if label not in mapping:
            mapping[label] = len(mapping) + 1
        out.append(mapping[label])
    return tuple(out)


def total_variation(dist_a, dist_b):
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


def rollout_forecast(samples, horizon, draws, seed):
    """Scalar reference forecast: one draw at a time, (draws, N, horizon).

    Unlike the rest of this module it runs the package's own model code.
    Each draw picks a chain uniformly, rebuilds every group of it from its
    sequence and rolls the copy forward with ``GroupModel.rollout``, which
    weighs one step at a time from scalar weights over the copy's
    incremental statistics and reads the panel mask as it stands.  It shares
    none of the arrays over draws that the package's forecast steps through.
    """
    panel = samples.panel
    rng = np.random.default_rng(seed)
    num, steps, p = panel.num_series, panel.num_steps, panel.window
    out = np.empty((draws, num, horizon))
    ext_observed = np.ones((num, p + steps + horizon), dtype=bool)
    ext_observed[:, : p + steps] = panel.observed
    future_steps = range(steps + 1, steps + horizon + 1)
    for r in range(draws):
        chain = samples.chains[int(rng.integers(samples.num_chains))]
        ext_values = np.zeros((num, p + steps + horizon))
        ext_values[:, : p + steps] = panel.values
        for group in chain.groups:
            future = group.empty_clone()
            future.load_sequence(group.regimes.z, ext_values, ext_observed)
            future.num_steps = steps + horizon
            future.regimes.z = future.regimes.z + [0] * horizon
            future.rollout(future_steps, ext_values, ext_observed, rng, emit=True)
        out[r] = ext_values[:, p + steps :]
    return out


def forecast_csv_rows(result):
    """``trcrp forecast``'s CSV rows for a ``ForecastResult``, one ``repr`` per draw."""
    num_draws, num_series, horizon = result.draws.shape
    rows = []
    for r in range(num_draws):
        for n, name in enumerate(result.series_names):
            for h in range(horizon):
                rows.append([name, f"+{h + 1}", r, repr(float(result.draws[r, n, h]))])
    return rows


def impute_csv_rows(result):
    """``trcrp impute``'s CSV rows for an imputation result, one ``repr`` per draw."""
    rows = []
    for ci, (n, t) in enumerate(result.cells):
        name, label = result.series_names[n], result.time_labels[t - 1]
        for r in range(result.draws.shape[1]):
            rows.append([name, label, r, repr(float(result.draws[ci, r]))])
    return rows


def forecast_summary(result):
    """``ForecastResult.summary`` with one mean and quantile call per series."""
    out = {}
    for idx, name in enumerate(result.series_names):
        block = result.draws[:, idx, :]
        qs = np.quantile(block, QUANTILES, axis=0)
        out[name] = {
            "mean": block.mean(axis=0).tolist(),
            "q05": qs[0].tolist(),
            "q25": qs[1].tolist(),
            "q75": qs[2].tolist(),
            "q95": qs[3].tolist(),
        }
    return out


def two_pass_log_ratio(group, t, branch_old, branch_new, cells):
    """Reference full-MH log ratio: one prefix-statistics pass per completed sequence.

    Unlike most of this module it runs the package's own
    :func:`~trcrp.model.prefix_stats`.  Time t is unassigned in ``group``;
    its sequence is completed with t in ``branch_old`` and, separately, in
    ``branch_new`` (``NEW_REGIME`` takes the next unused label), and the ratio
    sums the difference of the two sequences' no-emission log normalizers
    over the steps after t.  ``cells`` is the group's emission-free layout.
    Every pass scores all T steps and all K+1 columns, so the incremental
    ratio must give the same bits at a fraction of the cost.
    """
    if branch_old == branch_new or t >= group.num_steps:
        return 0.0
    normalizers = []
    for branch in (branch_old, branch_new):
        z = list(group.regimes.z)
        z[t - 1] = branch if branch != NEW_REGIME else group.regimes.num_regimes + 1
        prefix = prefix_stats(z, cells)
        normalizers.append(prefix.log_normalizers(prefix.log_weights(group.alpha))[t:])
    return float((normalizers[0] - normalizers[1]).sum())


def two_pass_sweep_z(group, values, observed, rng):
    """One full-MH sweep over t = 1..T decided by :func:`two_pass_log_ratio`.

    The same draws in the same order as ``trcrp.mcmc.sweep_z`` with a full-MH
    config, and the same end-of-sweep rebuild, but no table kept between
    sites.  Returns the count of accepted proposals.
    """
    cells = cell_layout(
        group.members, group.hypers, values, observed, group.window,
        LgammaTable(group.num_steps), emission=False,
    )
    accepted = 0
    for t in range(1, group.num_steps + 1):
        k_old, removed = group.unassign(t, values, observed)
        branch_old = NEW_REGIME if removed else k_old
        branch = propose_z(group, t, values, observed, rng)
        if branch != branch_old:
            log_r = two_pass_log_ratio(group, t, branch_old, branch, cells)
            if log_r < 0 and math.log(rng.random()) >= log_r:
                branch = branch_old
                accepted -= 1
        accepted += 1
        group.assign(t, group.add_regime() if branch == NEW_REGIME else branch, values, observed)
    group.rebuild_stats(values, observed)
    return accepted
