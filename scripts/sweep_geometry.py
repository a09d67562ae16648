#!/usr/bin/env python3
"""Sweep arena-geometry candidates for the two presets and report the
acceptance metrics from ``foragesim.summarize``. Used to pick the shipped
preset geometry; kept for re-tuning if the geometry or kinematics constants
change."""

import time
from dataclasses import replace

from foragesim import run_experiment, set1_config, set2_config, summarize

SET1_CANDIDATES = [(4.0, 1.0, 1.5), (4.5, 1.0, 1.5), (4.0, 1.2, 1.5)]
SET2_CANDIDATES = [(5.0, 1.0, 1.5), (6.0, 1.0, 1.5), (6.0, 1.2, 1.5)]


def with_geometry(config, hw, nest, speed):
    arena = replace(
        config.arena, arena_half_width=hw, nest_radius=nest, robot_speed=speed
    )
    return replace(config, arena=arena)


def mean_trips(results, config):
    total = sum(sum(sum(t) for t in r.trips) for r in results)
    return total / (len(results) * config.robot_count)


def evaluate(config, reps=20):
    t0 = time.time()
    results = [run_experiment(config, i) for i in range(reps)]
    s = summarize(config, results)
    scores = ", ".join(f"{k}={v:.3f}" for k, v in s.bimodality.items())
    counts = [len(run.forager_ids) for run in s.classification]
    line = (
        f"  scores={{{scores}}} tv={s.binomial.tv_distance:.3f} "
        f"p_hat={s.binomial.p_hat:.2f} counts={counts}"
    )
    if s.match_rate is not None:
        yellow = s.loafer_yellow_rate
        yellow = "none" if yellow is None else f"{yellow:.2f}"
        line += f" match={s.match_rate:.2f} loafer_yellow={yellow}"
    print(f"{line} trips={mean_trips(results, config):.1f} ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    for name, preset, candidates in (
        ("set1", set1_config, SET1_CANDIDATES),
        ("set2", set2_config, SET2_CANDIDATES),
    ):
        for hw, nest, speed in candidates:
            print(f"{name} hw={hw} nest={nest} speed={speed}")
            evaluate(with_geometry(preset(), hw, nest, speed))
