"""Interim looks on a simulated trial, then empirical validation of the
variance formula and the normal approximation for the same regime.
"""

from adx.report import fmt_adx, fmt_se
from adx.simulate import (
    ArmScenario,
    Scenario,
    generate_trial,
    validate_normality,
    validate_variance,
)
from adx.temporal import SEQUENTIAL_CAVEAT, LookSchedule, interim_series


def main() -> None:
    arm = ArmScenario(
        "active",
        tuple(i / sum(range(1, 16)) for i in range(1, 16)),
        episodes_per_subject=2.0,
        n_subjects=200,
        onset_span=360,
    )
    scenario = Scenario(arms=(arm,), seed=3)
    trial = generate_trial(scenario)

    schedule = LookSchedule((90, 180, 270, 360))
    series = interim_series(trial, schedule)
    print("cumulative AdX by look:")
    for (key, look), est in sorted(series.estimates.items(), key=lambda kv: kv[0][1]):
        print(
            f"  day {schedule.cutoff_days[look]:>3}: AdX={fmt_adx(est.adx)} "
            f"(SE {fmt_se(est.se)}) K={est.k} N={est.n}"
        )
    print(f"  ({SEQUENTIAL_CAVEAT})")

    v = validate_variance(scenario, replicates=3000).arms[0]
    print(
        f"\nvariance check: empirical sd / asymptotic se = {v.sd_over_se:.3f} "
        f"(bias {v.bias:+.4f}, first-order prediction {v.first_order_bias:+.4f})"
    )
    n = validate_normality(scenario, replicates=3000).arms[0]
    print(
        f"normality check: skew {n.skew:+.3f}, excess kurtosis "
        f"{n.excess_kurtosis:+.3f}, KS {n.ks_distance:.4f}"
    )


if __name__ == "__main__":
    main()
