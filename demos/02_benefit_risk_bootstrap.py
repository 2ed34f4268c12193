"""Benefit-risk on a simulated trial: REAd, Re-REAd and a bootstrap CI.

REAd divides an efficacy magnitude by the arm's AdX; Re-REAd is the
ratio of two REAds. The percentile bootstrap resamples episodes within
each arm (efficacy is held fixed), so the interval reflects AdX
sampling variability only.
"""

from adx import estimate, profile_from_episodes
from adx.benefit_risk import EfficacyInput, benefit_risk, re_read_bootstrap_ci
from adx.simulate import ArmScenario, Scenario, generate_trial


def main() -> None:
    scenario = Scenario(
        arms=(
            ArmScenario("high_dose", (0.30, 0.25, 0.20, 0.15, 0.10), 2.0, 150),
            ArmScenario("low_dose", (0.60, 0.20, 0.10, 0.06, 0.04), 2.0, 150),
        ),
        seed=11,
    )
    trial = generate_trial(scenario)
    efficacy = {
        "high_dose": EfficacyInput("high_dose", 1.9, higher_is_better=True, label="response ratio"),
        "low_dose": EfficacyInput("low_dose", 1.3, higher_is_better=True, label="response ratio"),
    }

    pt_terms = trial.columns.pt_term
    estimates = {
        arm: estimate(profile_from_episodes(pt_terms.select(trial.in_arm(arm))))
        for arm in trial.arms
    }
    result = benefit_risk(estimates, efficacy, pairs=[("high_dose", "low_dose")])
    for arm, score in result.read_values.items():
        print(f"REAd({arm}) = {score:.3f}")
    rr = result.re_read_values[("high_dose", "low_dose")]
    lo, hi = re_read_bootstrap_ci(
        trial, efficacy, ("high_dose", "low_dose"), level=0.95, replicates=1000, seed=11
    )
    verdict = "favours high_dose" if lo > 1.0 else "inconclusive" if hi > 1.0 else "favours low_dose"
    print(f"Re-REAd(high/low) = {rr:.3f}, 95% CI [{lo:.3f}, {hi:.3f}] -> {verdict}")


if __name__ == "__main__":
    main()
