"""Which layer entry points the traced run wraps, and the per-layer metrics.

Only coarse entry points are wrapped (one call per table build, session,
reassignment, load pass, LP, checkpoint shard ...). Per-round protocol
methods such as ``commit``, ``propose`` and ``true_delta`` (tens of
thousands of calls per run) stay unwrapped so the trace overhead stays
small. The map of metric -> end-to-end metric -> workload lives in the
docstring of ``perfbench/run.py``.
"""

from __future__ import annotations

import time

from tracer import Tracer

__all__ = ["install_unit_timer", "install_layers", "layer_metrics"]

#: (span name, module, qualname) wrapped in the traced run.
_SPANS = [
    ("topology.build", "repro.topology.dataset", "build_default_dataset"),
    ("topology.build", "repro.topology.internetwork", "build_internetwork"),
    ("routing.paths.sssp", "repro.routing.paths",
     "IntradomainRouting._sssp_batch"),
    ("routing.costs.build", "repro.routing.costs", "build_pair_cost_table"),
    ("routing.costs.derive", "repro.routing.costs",
     "PairCostTable.without_alternative"),
    ("routing.costs.derive", "repro.routing.costs",
     "PairCostTable.without_alternatives"),
    ("routing.costs.derive", "repro.routing.costs",
     "PairCostTable.batch_without_alternatives"),
    ("routing.costs.derive", "repro.routing.costs", "PairCostTable.subset"),
    ("baselines.flow_strategies", "repro.baselines.flow_strategies",
     "flow_pareto_choices"),
    ("baselines.flow_strategies", "repro.baselines.flow_strategies",
     "flow_both_better_choices"),
    ("traffic.gravity", "repro.traffic.gravity", "pop_gravity_weights"),
    ("core.evaluators.reassign", "repro.core.evaluators",
     "StaticPreferenceEvaluator.reassign"),
    ("core.evaluators.reassign", "repro.core.evaluators",
     "StaticCostEvaluator.reassign"),
    ("core.evaluators.reassign", "repro.core.evaluators",
     "LoadAwareEvaluator.reassign"),
    ("core.evaluators.reassign", "repro.core.evaluators",
     "FortzCostEvaluator.reassign"),
    ("capacity.loads.link_loads", "repro.capacity.loads", "link_loads"),
    ("capacity.loads.link_loads", "repro.capacity.loads", "pair_link_loads"),
    ("optimal.lp", "repro.optimal.bandwidth_lp", "solve_min_max_load_lp"),
    ("optimal.lp", "repro.optimal.unilateral", "solve_upstream_unilateral_lp"),
    ("optimal.solver", "repro.optimal.solver", "ScipyLinprogSolver.solve"),
    ("core.multi_session.init", "repro.core.multi_session",
     "MultiSessionCoordinator.__init__"),
    ("core.multi_session.run", "repro.core.multi_session",
     "MultiSessionCoordinator.run"),
    ("routing.interdomain.transit", "repro.routing.interdomain",
     "propagate_interdomain_routes"),
    ("routing.interdomain.transit", "repro.routing.interdomain",
     "TransitLoadIndex.__init__"),
    ("routing.interdomain.transit", "repro.routing.interdomain",
     "TransitLoadIndex.sever"),
    ("routing.interdomain.transit", "repro.routing.interdomain",
     "TransitLoadIndex.loads"),
    ("routing.interdomain.transit", "repro.routing.interdomain",
     "TransitLoadIndex.loads_after"),
    ("experiments.runner.checkpoint", "repro.experiments.runner",
     "CheckpointStore.save"),
    ("experiments.runner.run", "repro.experiments.runner", "SweepRunner.run"),
]

#: The sweep unit of each workload: a pair (distance, bandwidth) or one
#: edge session of the multi-ISP coordination. Timed in every run.
_UNITS = [
    ("repro.experiments.distance", "run_distance_pair"),
    ("repro.experiments.bandwidth", "run_pair_cases"),
    ("repro.core.multi_session", "MultiSessionCoordinator._run_session"),
]


def install_unit_timer(tracer: Tracer) -> None:
    """Wrap only the sweep unit (the whole instrumentation of an untraced run)."""
    for module, qualname in _UNITS:
        tracer.span("unit", module, qualname)


def _session_outcome(tracer: Tracer, args, outcome):
    tracer.add("session.rounds", len(outcome.rounds))
    tracer.add("session.accepted", sum(r.accepted for r in outcome.rounds))
    tracer.add("session.rolled_back", len(outcome.rolled_back))
    return outcome


def _escalation(tracer: Tracer, args, escalated):
    if escalated:
        tracer.add("damping.escalations")
    return escalated


def _slot_decision(tracer: Tracer, args, decision):
    # A skip that neither records an empty scope (set_context) nor a fault
    # is the "context unchanged since the edge's last session" skip.
    if (decision.kind == "skip" and not decision.set_context
            and decision.fault is None):
        tracer.add("multi.context_skips")
    return decision


def _gravity_size_fn(tracer: Tracer, args, fn):
    # Gravity sizing runs mostly inside the per-flow closure size_fn
    # returns; time it in aggregate (a span per flow would dominate).
    clock = time.perf_counter

    def timed(src, dst):
        start = clock()
        try:
            return fn(src, dst)
        finally:
            tracer.add("gravity.flow_s", clock() - start)

    return timed


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point, the sweep unit and the counters."""
    install_unit_timer(tracer)
    for name, module, qualname in _SPANS:
        tracer.span(name, module, qualname)
    tracer.span("traffic.gravity", "repro.traffic.gravity",
                "GravityWorkload.size_fn", hook=_gravity_size_fn)
    tracer.span("core.session", "repro.core.session",
                "NegotiationSession.run", hook=_session_outcome)
    tracer.span("core.damping", "repro.core.damping",
                "DampingController.escalate", hook=_escalation)
    tracer.count("repro.core.multi_session",
                 "MultiSessionCoordinator._slot_begin", _slot_decision)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, multi_result=None) -> dict[str, float]:
    """Per-layer metrics of one traced repeat, by their BENCHMARK.json names.

    ``multi_result`` is the multi-ISP coordination result, whose rounds,
    slots, adoptions and colour count are read from the records instead
    of from per-round wrappers.
    """
    times = tracer.layer_times()
    counters = tracer.counters

    def total(name):
        return times.get(name, {}).get("total", 0.0)

    def own(name):
        return times.get(name, {}).get("self", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    session_rounds = counters.get("session.rounds", 0)
    lp_s = total("optimal.lp")
    solver_s = total("optimal.solver")
    m = {
        "topology.build_s": total("topology.build"),
        "routing.paths.sssp_s": total("routing.paths.sssp"),
        "routing.paths.sssp_calls": calls("routing.paths.sssp"),
        "routing.costs.build_s": own("routing.costs.build"),
        "routing.costs.builds": calls("routing.costs.build"),
        "routing.costs.derive_s": total("routing.costs.derive"),
        "routing.costs.derives": calls("routing.costs.derive"),
        "baselines.flow_strategies.s": total("baselines.flow_strategies"),
        "baselines.flow_strategies.calls": calls("baselines.flow_strategies"),
        "traffic.gravity.s": total("traffic.gravity")
        + counters.get("gravity.flow_s", 0.0),
        "traffic.gravity.calls": calls("traffic.gravity"),
        "core.session.s": own("core.session"),
        "core.session.calls": calls("core.session"),
        "core.session.protocol_rounds": session_rounds,
        "core.session.rounds_per_s": _ratio(session_rounds,
                                            total("core.session")),
        "core.session.accept_ratio": _ratio(
            counters.get("session.accepted", 0), session_rounds),
        "core.session.rolled_back": counters.get("session.rolled_back", 0),
        "core.evaluators.reassign_s": total("core.evaluators.reassign"),
        "core.evaluators.reassigns": calls("core.evaluators.reassign"),
        "capacity.loads.link_loads_s": total("capacity.loads.link_loads"),
        "capacity.loads.calls": calls("capacity.loads.link_loads"),
        "optimal.lp_s": lp_s,
        "optimal.lp_solves": calls("optimal.solver"),
        "optimal.solver_s": solver_s,
        "optimal.lp_overhead_s": lp_s - solver_s,
        "core.multi_session.init_s": total("core.multi_session.init"),
        "core.multi_session.coord_self_s": own("core.multi_session.run"),
        "routing.interdomain.transit_s": total("routing.interdomain.transit"),
        "routing.interdomain.calls": calls("routing.interdomain.transit"),
        "core.damping.escalations": counters.get("damping.escalations", 0),
        "experiments.runner.checkpoint_s":
            total("experiments.runner.checkpoint"),
        "experiments.runner.shards": calls("experiments.runner.checkpoint"),
        "experiments.runner.overhead_s":
            total("experiments.runner.run")
            - _unit_time_inside(tracer, "experiments.runner.run"),
    }
    records = multi_result.records() if multi_result is not None else []
    sessions = sum(r.ran_session for r in records)
    m.update({
        "core.multi_session.rounds":
            multi_result.n_rounds() if records else 0,
        "core.multi_session.slots": len(records),
        "core.multi_session.sessions_run": sessions,
        "core.multi_session.skip_ratio": _ratio(
            counters.get("multi.context_skips", 0), len(records)),
        "core.multi_session.adopt_ratio": _ratio(
            sum(r.adopted for r in records), sessions),
        "core.multi_session.colors": multi_result.n_colors if records else 0,
    })
    return m


def _unit_time_inside(tracer: Tracer, ancestor: str) -> float:
    """Seconds of ``unit`` spans that run inside an ``ancestor`` span."""
    spans = tracer.spans
    seconds = 0.0
    for span in spans:
        if span is None or span[0] != "unit":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            seconds += span[2] - span[1]
    return seconds
