"""Outside-in tracer for foragesim.

It rebinds, from outside the package, the names each layer calls across a
module boundary: the arena and allocation functions ``foragesim.engine``
imports, the spawner ``foragesim.experiment`` imports, ``run_experiment``
and the analysis functions ``foragesim.cli`` imports, plus
``World.check_conservation`` and ``Simulation.run``. No file of the package
changes, and the wrappers draw no random numbers, so a traced run writes the
same bundle bytes as an untraced one.

Coarse steps (the bundle, each replication, its world build and simulation,
each analysis call) become spans kept in memory: ``[id, name, start, end,
parent_id]``, times in seconds since the tracer started. Hot functions called
thousands of times per replication only add to count and time totals, which
keeps the overhead near a tenth of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

clock = time.perf_counter

# Names foragesim.engine imports from foragesim.allocation.
ALLOCATION_FUNCTIONS = (
    "leave_nest_decision",
    "assign_task",
    "record_pickup_event",
    "record_leave_outcome",
    "record_trip_outcome",
)

# Names foragesim.cli imports from foragesim.analysis.
ANALYSIS_FUNCTIONS = (
    "bimodality_score",
    "binomial_comparison",
    "classify_foragers",
    "classify_preferences",
    "histogram",
)


class Tracer:
    def __init__(self) -> None:
        self.t0 = clock()
        self.spans: list = []
        self.open_spans: list = []
        self.counts: Counter = Counter()  # exact event counts
        self.seconds: Counter = Counter()  # time totals of wrapped functions
        self.replication_counts: list = []  # exact counts of each replication

    def _open(self, name: str) -> list:
        parent = self.open_spans[-1][0] if self.open_spans else None
        span = [len(self.spans), name, clock() - self.t0, None, parent]
        self.spans.append(span)
        self.open_spans.append(span)
        return span

    def _close(self) -> None:
        self.open_spans.pop()[3] = clock() - self.t0

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._open(name)
            result = fn(*args, **kwargs)
            self._close()
            return result

        return wrapper

    def timed(self, name: str, fn, calls_key: str | None = None):
        seconds, counts = self.seconds, self.counts
        calls_key = calls_key or name + ".calls"

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            seconds[name] += clock() - start
            counts[calls_key] += 1
            return result

        return wrapper

    def _nearest_contact(self, fn):
        seconds, counts = self.seconds, self.counts

        def nearest_contact(*args, **kwargs):
            start = clock()
            contact = fn(*args, **kwargs)
            seconds["arena.nearest_contact"] += clock() - start
            counts["arena.nearest_contact.calls"] += 1
            counts["arena.contact." + contact.kind.value] += 1
            return contact

        return nearest_contact

    def _bounce_heading(self, fn):
        seconds, counts = self.seconds, self.counts

        def bounce_heading(current_heading, rng, clearance_test, *args, **kwargs):
            accepted = False

            def counted_test(heading):
                nonlocal accepted
                counts["arena.bounce_heading.redraws"] += 1
                accepted = clearance_test(heading)
                return accepted

            start = clock()
            heading = fn(current_heading, rng, counted_test, *args, **kwargs)
            seconds["arena.bounce_heading"] += clock() - start
            counts["arena.bounce_heading.calls"] += 1
            if not accepted:  # every redraw was refused: the away-vector was used
                counts["arena.bounce_heading.fallbacks"] += 1
            return heading

        return bounce_heading

    def _simulation_run(self, fn):
        def run(sim):
            replication = self.open_spans[-1]
            # World build: from the replication's start to the first tick.
            start, parent = replication[2], replication[0]
            build = [len(self.spans), "experiment.build_world", start, None, parent]
            self.spans.append(build)
            span = self._open("engine.run")
            build[3] = span[2]
            fn(sim)
            self._close()
            ticks = sim.clock.tick_index
            self.counts["engine.ticks"] += ticks
            self.counts["engine.robot_ticks"] += ticks * len(sim.world.robots)

        return run

    def _replication(self, fn):
        def run_experiment(*args, **kwargs):
            before = Counter(self.counts)
            self._open("experiment.replication")
            result = fn(*args, **kwargs)
            self._close()
            delta = Counter(self.counts)
            delta.subtract(before)
            self.replication_counts.append({k: v for k, v in sorted(delta.items()) if v})
            return result

        return run_experiment

    def install(self) -> None:
        """Rebind the cross-layer names; call before ``foragesim.cli.main``."""
        from foragesim import arena, cli, engine, experiment

        engine.nearest_contact = self._nearest_contact(engine.nearest_contact)
        engine.bounce_heading = self._bounce_heading(engine.bounce_heading)
        engine.spawn_object = self.timed(
            "arena.spawn_object.run", engine.spawn_object, "arena.spawn_object.run_calls"
        )
        experiment.spawn_object = self.timed(
            "arena.spawn_object.build",
            experiment.spawn_object,
            "arena.spawn_object.build_calls",
        )
        arena.World.check_conservation = self.timed(
            "arena.check_conservation", arena.World.check_conservation
        )
        for name in ALLOCATION_FUNCTIONS:
            setattr(engine, name, self.timed("allocation." + name, getattr(engine, name)))
        engine.Simulation.run = self._simulation_run(engine.Simulation.run)
        cli.run_experiment = self._replication(cli.run_experiment)
        for name in ANALYSIS_FUNCTIONS:
            setattr(cli, name, self.spanned("analysis." + name, getattr(cli, name)))
        cli.run_command = self.spanned("cli.run_command", cli.run_command)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(sorted(self.counts.items())),
                    "seconds": dict(sorted(self.seconds.items())),
                    "replication_counts": self.replication_counts,
                },
                fh,
            )
