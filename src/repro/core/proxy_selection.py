"""Proxy selection and proxy combination (Section 3.4).

Two capabilities:

* **Selection** — given several candidate proxies for the same predicate,
  estimate which stratification will yield the lowest MSE.  ABae reuses a
  uniform pilot sample: for each proxy it assigns the pilot records to that
  proxy's quantile strata, computes plug-in ``p_hat_k`` / ``sigma_hat_k``,
  and evaluates the Proposition-2 MSE formula.  The proxy with the lowest
  predicted MSE is selected; the ratio against the uniform-sampling MSE is
  the "expected performance gain".

* **Combination** — train a logistic regression on the pilot samples with
  each proxy's score as a feature and the oracle result as the target; the
  fitted model's predicted probabilities become a new, combined proxy.
  The regression effectively "ignores" uninformative proxies (their weights
  shrink toward zero), which Figure 12 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.abae import StatisticLike
from repro.engine.pipeline import normalize_statistic
from repro.core.batching import label_records
from repro.core.allocation import (
    optimal_stratified_mse,
    uniform_sampling_mse,
)
from repro.core.stratification import Stratification
from repro.proxy.base import PrecomputedProxy, Proxy
from repro.proxy.logistic import LogisticRegression
from repro.stats.descriptive import safe_mean, safe_std
from repro.stats.rng import RandomState
from repro.stats.sampling import sample_without_replacement

__all__ = [
    "PilotSample",
    "ProxyScore",
    "draw_pilot_sample",
    "rank_proxies",
    "select_proxy",
    "combine_proxies",
]


@dataclass
class PilotSample:
    """A uniform pilot sample with oracle labels and statistic values."""

    indices: np.ndarray
    matches: np.ndarray
    values: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])


@dataclass
class ProxyScore:
    """Predicted quality of one candidate proxy."""

    proxy: Proxy
    predicted_mse: float
    predicted_uniform_mse: float

    @property
    def predicted_gain(self) -> float:
        """Expected speedup over uniform sampling (>= 1 means the proxy helps)."""
        if self.predicted_mse == 0:
            return float("inf")
        if not np.isfinite(self.predicted_mse) or not np.isfinite(
            self.predicted_uniform_mse
        ):
            return 1.0
        return self.predicted_uniform_mse / self.predicted_mse


def draw_pilot_sample(
    num_records: int,
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    pilot_budget: int,
    rng: Optional[RandomState] = None,
    batch_size: Optional[int] = None,
) -> PilotSample:
    """Draw a uniform pilot sample and label it with the batched engine."""
    if num_records <= 0:
        raise ValueError(f"num_records must be positive, got {num_records}")
    if pilot_budget <= 0:
        raise ValueError(f"pilot_budget must be positive, got {pilot_budget}")
    rng = rng or RandomState(0)
    statistic_fn = normalize_statistic(statistic)
    indices = sample_without_replacement(
        np.arange(num_records, dtype=np.int64), pilot_budget, rng
    )
    matches, values = label_records(indices, oracle, statistic_fn, batch_size)
    return PilotSample(indices=indices, matches=matches, values=values)


def _pilot_estimates_for_proxy(
    proxy: Proxy, pilot: PilotSample, num_strata: int
) -> tuple:
    """Assign pilot records to the proxy's strata; return (p_hat, sigma_hat, mu_hat)."""
    stratification = Stratification.by_proxy_quantile(proxy, num_strata)
    assignment = stratification.stratum_of()
    pilot_strata = assignment[pilot.indices]
    p_hat = np.zeros(num_strata)
    sigma_hat = np.zeros(num_strata)
    mu_hat = np.zeros(num_strata)
    for k in range(num_strata):
        in_stratum = pilot_strata == k
        draws = int(in_stratum.sum())
        if draws == 0:
            continue
        matches_k = pilot.matches[in_stratum]
        p_hat[k] = float(matches_k.mean())
        positive_values = pilot.values[in_stratum][matches_k]
        mu_hat[k] = safe_mean(positive_values)
        sigma_hat[k] = safe_std(positive_values)
    return p_hat, sigma_hat, mu_hat


def rank_proxies(
    proxies: Sequence[Proxy],
    pilot: PilotSample,
    num_strata: int = 5,
    reference_budget: int = 1000,
) -> List[ProxyScore]:
    """Rank candidate proxies by predicted MSE (best first)."""
    if not proxies:
        raise ValueError("rank_proxies requires at least one candidate proxy")
    if pilot.size == 0:
        raise ValueError("the pilot sample is empty")
    scored: List[ProxyScore] = []
    for proxy in proxies:
        p_hat, sigma_hat, mu_hat = _pilot_estimates_for_proxy(proxy, pilot, num_strata)
        predicted = optimal_stratified_mse(p_hat, sigma_hat, reference_budget)
        uniform = uniform_sampling_mse(p_hat, sigma_hat, reference_budget, mu=mu_hat)
        scored.append(
            ProxyScore(
                proxy=proxy, predicted_mse=predicted, predicted_uniform_mse=uniform
            )
        )
    return sorted(scored, key=lambda s: s.predicted_mse)


def select_proxy(
    proxies: Sequence[Proxy],
    pilot: PilotSample,
    num_strata: int = 5,
) -> Proxy:
    """The proxy with the lowest predicted MSE (Section 3.4's selection rule)."""
    return rank_proxies(proxies, pilot, num_strata=num_strata)[0].proxy


def combine_proxies(
    proxies: Sequence[Proxy],
    pilot: PilotSample,
    name: str = "combined_proxy",
    learning_rate: float = 0.5,
    max_iter: int = 2000,
) -> PrecomputedProxy:
    """Combine proxies into one via logistic regression on the pilot sample.

    Features are each proxy's score for the pilot records; the target is the
    oracle's answer.  The combined proxy's scores over the whole dataset are
    the fitted model's predicted probabilities.
    """
    if not proxies:
        raise ValueError("combine_proxies requires at least one proxy")
    if pilot.size == 0:
        raise ValueError("the pilot sample is empty")
    lengths = {len(p) for p in proxies}
    if len(lengths) != 1:
        raise ValueError(
            f"all proxies must score the same number of records, got {sorted(lengths)}"
        )

    # Feature extraction touches only the pilot records, so lazy proxies
    # (CallableProxy, LogisticProxy) score just those rows here; the full
    # vectors are only materialized for the final combined prediction.
    features = np.column_stack([p.scores_batch(pilot.indices) for p in proxies])
    labels = pilot.matches.astype(float)

    model = LogisticRegression(learning_rate=learning_rate, max_iter=max_iter)
    model.fit(features, labels)
    all_scores = np.column_stack([p.scores() for p in proxies])
    combined = np.clip(model.predict_proba(all_scores), 0.0, 1.0)
    return PrecomputedProxy(combined, name=name)
