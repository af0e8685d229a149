"""Figure 1 — temporal distribution of aggregate cellular traffic.

Regenerates the three panels: (a) one day at 10-minute resolution, (b) one
week at 10-minute resolution, (c) the whole window per day.  Shape targets:
two intra-day peaks (midday and evening), a clear night valley, and weekly
periodicity with weekend traffic lower than weekday traffic.
"""

from benchmarks.conftest import print_section
from repro.analysis.temporal import daily_series, hourly_series, weekly_series
from repro.viz.ascii import ascii_line_plot


def build_fig1(scenario):
    aggregate = scenario.traffic.aggregate()
    window = scenario.window
    day_panel = hourly_series(aggregate, window, day=3)  # a Thursday
    week_panel = daily_series(aggregate, window, start_day=0, num_days=7)
    month_panel = weekly_series(aggregate, window)
    return day_panel, week_panel, month_panel


def test_fig01_temporal_distribution(benchmark, bench_scenario):
    day_panel, week_panel, month_panel = benchmark(build_fig1, bench_scenario)

    print_section("Figure 1 — temporal distribution of cellular traffic")
    print(ascii_line_plot(day_panel, title="(a) one day, bytes per 10 minutes"))
    print(ascii_line_plot(week_panel, title="(b) one week, bytes per 10 minutes"))
    print(ascii_line_plot(month_panel, title="(c) whole window, bytes per day"))

    # Shape: night valley well below the daily peak.
    night = day_panel[24:36].mean()   # 04:00-06:00
    peak = day_panel.max()
    print(f"day peak/valley ratio: {peak / night:.1f}")
    assert peak > 3 * night

    # Shape: weekly periodicity — weekend days carry less traffic.
    window = bench_scenario.window
    weekday_mean = month_panel[[d for d in range(window.num_days) if not window.is_weekend(d)]].mean()
    weekend_mean = month_panel[window.weekend_days()].mean()
    print(f"weekday/weekend daily traffic ratio: {weekday_mean / weekend_mean:.3f}")
    assert weekday_mean > weekend_mean

    # Shape: the day panel has a clearly elevated evening level (the second
    # peak region of Fig. 1(a)) — well above the night valley even though the
    # absolute maximum falls around midday on the synthetic city.
    evening = day_panel[120:138].max()  # 20:00-23:00
    print(f"evening/peak ratio: {evening / peak:.2f}")
    assert evening > 0.35 * peak
    assert evening > 3 * night
