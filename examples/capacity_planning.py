#!/usr/bin/env python3
"""Pattern-aware capacity planning — the "ISP operations" use case.

The paper motivates the pattern model with network management: instead of one
city-wide strategy, an operator can provision and price per pattern.  This
example derives, per identified pattern, the quantities an operator would
actually plan with: busy-hour load, peak-to-valley swing, weekday/weekend
imbalance, and the best daily window for maintenance, and then estimates how
much capacity a pattern-aware dimensioning saves compared with dimensioning
every tower for the city-wide busy hour.

Run with::

    python examples/capacity_planning.py
"""

from repro import ModelConfig, ScenarioConfig, TrafficPatternModel, generate_scenario
from repro.analysis.interrelations import average_daily_profile
from repro.analysis.peaks import find_daily_peak_valley_times
from repro.analysis.timedomain import peak_valley_features, weekday_weekend_ratio
from repro.viz.tables import format_table


def main() -> None:
    print("Generating the city and fitting the traffic-pattern model...")
    scenario = generate_scenario(
        ScenarioConfig(num_towers=250, num_users=1_000, num_days=28, seed=21)
    )
    model = TrafficPatternModel(ModelConfig(max_clusters=10))
    result = model.fit(scenario.traffic, city=scenario.city)
    window = result.window

    rows = []
    per_pattern_peak_demand = {}
    for cluster in range(result.num_clusters):
        region = result.region_of_cluster(cluster)
        aggregate = result.cluster_aggregate(cluster)
        features = peak_valley_features(aggregate, window)
        ratio = weekday_weekend_ratio(aggregate, window)
        timing = find_daily_peak_valley_times(aggregate, window)
        members = result.cluster_members(cluster)
        # Busy-hour demand per tower: the cluster's weekday peak split over
        # its towers (bytes per 10 minutes).
        busy_hour_per_tower = features.weekday_max / members.size
        per_pattern_peak_demand[cluster] = busy_hour_per_tower
        rows.append(
            [
                region.value,
                members.size,
                f"{busy_hour_per_tower:.2e}",
                f"{features.weekday_ratio:.1f}",
                f"{ratio:.2f}",
                " / ".join(timing.peak_times),
                timing.valley_time,
            ]
        )

    print("\nPer-pattern planning table:")
    print(
        format_table(
            [
                "pattern",
                "towers",
                "busy-hour bytes/10min/tower",
                "peak/valley",
                "weekday/weekend",
                "peak times",
                "maintenance window",
            ],
            rows,
        )
    )

    # Pattern-aware dimensioning vs one-size-fits-all dimensioning.
    city_aggregate = result.vectorized.raw.aggregate()
    city_profile = average_daily_profile(city_aggregate, window, normalize=False)
    city_busy_per_tower = city_profile.max() / result.vectorized.num_towers

    uniform_capacity = city_busy_per_tower * result.vectorized.num_towers
    aware_capacity = sum(
        per_pattern_peak_demand[cluster] * result.cluster_members(cluster).size
        for cluster in range(result.num_clusters)
    )
    print(
        "\nDimensioning every tower for the city-wide busy hour needs "
        f"{uniform_capacity:.3e} bytes/10min of installed capacity."
    )
    print(
        "Dimensioning each pattern for its own busy hour needs "
        f"{aware_capacity:.3e} bytes/10min."
    )
    print(f"Pattern-aware saving: {(1 - aware_capacity / uniform_capacity):.1%}")

    # Complementarity: office peaks at midday, resident in the evening — load
    # balancing across neighbouring towers of different patterns smooths the
    # combined curve.
    from repro.synth.regions import RegionType

    office = average_daily_profile(
        result.cluster_aggregate(result.cluster_of_region(RegionType.OFFICE)), window
    )
    resident = average_daily_profile(
        result.cluster_aggregate(result.cluster_of_region(RegionType.RESIDENT)), window
    )
    combined = office + resident
    print(
        "\nPeak-to-mean ratio: office alone "
        f"{office.max() / office.mean():.2f}, resident alone "
        f"{resident.max() / resident.mean():.2f}, office+resident combined "
        f"{combined.max() / combined.mean():.2f}"
    )
    print("Lower combined peak-to-mean means shared capacity is used more efficiently.")


if __name__ == "__main__":
    main()
