"""Two-arm safety comparison on a simulated trial.

Generates a synthetic trial where the active arm spreads its adverse
events over more types than the control, estimates AdX/EALS/SEALS per
arm, and runs the two-cohort Z-test.
"""

import numpy as np

from adx import compare, estimate, profile_from_episodes
from adx.report import fmt_adx, fmt_eals, fmt_p, fmt_se, fmt_seals
from adx.simulate import ArmScenario, Scenario, generate_trial


def main() -> None:
    active_probs = tuple(np.full(20, 1 / 20))          # even spread, 20 types
    control_probs = tuple(np.array([0.55, 0.25] + [0.2 / 8] * 8))  # concentrated
    scenario = Scenario(
        arms=(
            ArmScenario("active", active_probs, episodes_per_subject=1.5, n_subjects=120),
            ArmScenario("control", control_probs, episodes_per_subject=1.5, n_subjects=120),
        ),
        seed=7,
    )
    trial = generate_trial(scenario)

    estimates = {}
    for arm in trial.arms:
        est = estimate(profile_from_episodes(trial.columns.pt_term.select(trial.in_arm(arm))))
        estimates[arm] = est
        print(
            f"{arm:>8}: AdX={fmt_adx(est.adx)} (SE {fmt_se(est.se)}), "
            f"K={est.k}, N={est.n}, EALS={fmt_eals(est.eals)}, SEALS={fmt_seals(est.seals)}"
        )

    result = compare(estimates["active"], estimates["control"])
    print(
        f"\ndiff={fmt_adx(result.diff)}  z={result.z:.2f}  "
        f"p={fmt_p(result.p_value)}  -> {result.direction}"
    )


if __name__ == "__main__":
    main()
