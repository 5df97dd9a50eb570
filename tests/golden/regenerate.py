"""Regenerate the golden-output regression corpus.

Each case pins one small-but-real simulation config and stores its
sanitized summary plus the raw per-flow FCT samples.  The replay test
(``tests/test_golden_corpus.py``) re-runs every stored case, with the
compiled owner kernel and without it, and demands exact agreement with
the stored output, so the corpus catches silent behaviour drift --
including drift that keeps the two consistent with each other.

Run from the repo root after an *intentional* behaviour change:

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the diff together with the change that caused it.  A diff
appearing here without an intentional semantics change is a regression.
"""

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent

#: case name -> (scheduler, rat, mu, duration_s, config kwargs)
CASES = {
    "lte-outran-um-clean": ("outran", "lte", 1, 0.4,
                            {"rlc_mode": "um", "radio_bler": 0.0}),
    "lte-outran-am-lossy": ("outran", "lte", 1, 0.4,
                            {"rlc_mode": "am", "radio_bler": 0.1}),
    "lte-pf-um-lossy": ("pf", "lte", 1, 0.4,
                        {"rlc_mode": "um", "radio_bler": 0.05}),
    "lte-srjf-am": ("srjf", "lte", 1, 0.4,
                    {"rlc_mode": "am", "radio_bler": 0.02}),
    "lte-mlfq-strict-um": ("mlfq_strict", "lte", 1, 0.4,
                           {"rlc_mode": "um", "radio_bler": 0.05}),
    "nr-mu1-outran-um": ("outran", "nr", 1, 0.2,
                         {"rlc_mode": "um", "radio_bler": 0.0}),
    # Frozen from the scalar reference path the commit before it was
    # deleted: the rest of the former two-path differential grid, the
    # remaining metric schedulers, a list-fed scheduler of each kind
    # (QoS, top-K ablation) and the ECN/DCTCP closed loop.
    "lte-outran-eps0-um-lossy": ("outran:0.0", "lte", 1, 0.4,
                                 {"rlc_mode": "um", "radio_bler": 0.02}),
    "lte-outran-um-lossy": ("outran", "lte", 1, 0.4,
                            {"rlc_mode": "um", "radio_bler": 0.1}),
    "lte-outran-am-clean": ("outran", "lte", 1, 0.4,
                            {"rlc_mode": "am", "radio_bler": 0.0}),
    "lte-pf-am-lossy": ("pf", "lte", 1, 0.4,
                        {"rlc_mode": "am", "radio_bler": 0.1}),
    "lte-srjf-um-lossy": ("srjf", "lte", 1, 0.4,
                          {"rlc_mode": "um", "radio_bler": 0.05}),
    "lte-rr-am-lossy": ("rr", "lte", 1, 0.4,
                        {"rlc_mode": "am", "radio_bler": 0.02}),
    "lte-pss-um-lossy": ("pss", "lte", 1, 0.4,
                         {"rlc_mode": "um", "radio_bler": 0.05}),
    "lte-mt-um": ("mt", "lte", 1, 0.4,
                  {"rlc_mode": "um", "radio_bler": 0.0}),
    "lte-bet-um": ("bet", "lte", 1, 0.4,
                   {"rlc_mode": "um", "radio_bler": 0.0}),
    "lte-outran-top2-um": ("outran_top2", "lte", 1, 0.4,
                           {"rlc_mode": "um", "radio_bler": 0.0}),
    "lte-outran-dctcp-red": ("outran", "lte", 1, 0.4,
                             {"rlc_mode": "um", "radio_bler": 0.0,
                              "cc": "dctcp", "aqm": "red"}),
    "nr-mu0-outran-um": ("outran", "nr", 0, 0.2,
                         {"rlc_mode": "um", "radio_bler": 0.0}),
    # Frozen from the list feed the commit before it was deleted: every
    # scheduler the xNodeB handed ``UeSchedState`` objects and the
    # corpus lacked -- the rest of the QoS family, the GBR wrapper,
    # OutRAN over MT (the Fig. 18b instance) -- plus the oracle gating
    # (``qos_oracle`` refreshes nothing for PF) and a mid-run control.
    "lte-cqa-um-lossy": ("cqa", "lte", 1, 0.4,
                         {"rlc_mode": "um", "radio_bler": 0.05}),
    "lte-mlwdf-um-lossy": ("mlwdf", "lte", 1, 0.4,
                           {"rlc_mode": "um", "radio_bler": 0.05}),
    "lte-exppf-um-lossy": ("exppf", "lte", 1, 0.4,
                           {"rlc_mode": "um", "radio_bler": 0.05}),
    "lte-pss-am": ("pss", "lte", 1, 0.4,
                   {"rlc_mode": "am", "radio_bler": 0.02}),
    "lte-pf-qos-oracle-um": ("pf", "lte", 1, 0.4,
                             {"rlc_mode": "um", "radio_bler": 0.0,
                              "qos_oracle": True}),
    "lte-gbr-pf-um": ("gbr[pf]", "lte", 1, 0.4,
                      {"rlc_mode": "um", "radio_bler": 0.0}),
    "lte-gbr-outran-um": ("gbr[outran]", "lte", 1, 0.4,
                          {"rlc_mode": "um", "radio_bler": 0.0,
                           "use_mlfq": True}),
    "lte-outran-mt-um": ("outran[mt]", "lte", 1, 0.4,
                         {"rlc_mode": "um", "radio_bler": 0.0}),
    "lte-outran-am-ric-thresholds": ("outran", "lte", 1, 0.4,
                                     {"rlc_mode": "am", "radio_bler": 0.1}),
}

#: case name -> (TTI, ``SimulationSession.reconfigure`` kwargs): a
#: guardrail-checked E2 control requested mid-run, applied at the next
#: TTI boundary.
CONTROLS = {
    "lte-outran-am-ric-thresholds": (
        150, {"thresholds": (5_000, 25_000, 250_000)}
    ),
}

BASE_KWARGS = {"num_ues": 4, "load": 0.5, "seed": 7}


def sanitize(value):
    """NaN -> None recursively, so dict equality is well-defined."""
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, float) and value != value:
        return None
    return value


def make_case_scheduler(spec):
    """Scheduler names pass through; the top-K ablation, OutRAN over MT
    and the GBR wrapper have no name and are built as instances."""
    from repro.core.outran import OutranScheduler
    from repro.mac.gbr import GbrConfig, GbrReservingScheduler
    from repro.mac.pf import MaxThroughputScheduler, ProportionalFairScheduler

    if spec == "outran_top2":
        return OutranScheduler(ProportionalFairScheduler(), epsilon=0.2,
                               top_k=2)
    if spec == "outran[mt]":
        return OutranScheduler(MaxThroughputScheduler())
    if spec.startswith("gbr["):
        inner = (OutranScheduler() if spec == "gbr[outran]"
                 else ProportionalFairScheduler())
        return GbrReservingScheduler(
            inner, {0: GbrConfig(rate_bps=2e6), 2: GbrConfig(rate_bps=5e5)}
        )
    return spec


def run_case(name):
    from repro import CellSimulation, SimConfig

    scheduler, rat, mu, duration_s, overrides = CASES[name]
    kwargs = dict(BASE_KWARGS, **overrides)
    if rat == "nr":
        cfg = SimConfig.nr_default(mu=mu, **kwargs)
    else:
        cfg = SimConfig.lte_default(**kwargs)
    sim = CellSimulation(cfg, scheduler=make_case_scheduler(scheduler))
    if name in CONTROLS:
        from repro.sim.session import SimulationSession

        at_tti, control = CONTROLS[name]
        session = SimulationSession(sim, duration_s).start()
        session.step(n_ttis=at_tti)
        session.reconfigure(**control)
        result = session.finish()
    else:
        result = sim.run(duration_s)
    return {
        "case": name,
        "scheduler": scheduler,
        "rat": rat,
        "mu": mu,
        "duration_s": duration_s,
        "config": dict(BASE_KWARGS, **overrides),
        "summary": sanitize(result.summary()),
        # json round-trips doubles exactly (shortest-repr floats), so
        # the replay comparison below stays bit-exact.
        "fcts_ms": [float(v) for v in result.fcts_ms()],
    }


#: The golden *checkpoints*: mid-run session snapshots whose resume must
#: keep producing the pinned fingerprint.  Catch checkpoint-format
#: breakage (renamed attributes, changed pickle layout) that the JSON
#: corpus cannot see.  name -> (scheduler, rlc_mode, config overrides,
#: duration_s, checkpoint TTI)
SESSION_CASES = {
    "session-outran-um": ("outran", "um", {}, 0.4, 150),
    "session-outran-am-lossy": ("outran", "am", {"radio_bler": 0.1}, 0.4, 150),
}


def session_case_config(name):
    from repro import SimConfig

    _, rlc_mode, overrides, _, _ = SESSION_CASES[name]
    return SimConfig.lte_default(rlc_mode=rlc_mode, **BASE_KWARGS, **overrides)


def session_case_at_checkpoint(name):
    """The case's session, started and stepped to its checkpoint TTI."""
    from repro import CellSimulation
    from repro.sim.session import SimulationSession

    scheduler, _, _, duration_s, ckpt_ttis = SESSION_CASES[name]
    session = SimulationSession(
        CellSimulation(session_case_config(name), scheduler=scheduler),
        duration_s,
    ).start()
    session.step(n_ttis=ckpt_ttis)
    return session


def regen_session_checkpoint(name):
    from repro.sim.session import result_fingerprint

    scheduler, rlc_mode, overrides, duration_s, _ = SESSION_CASES[name]
    session = session_case_at_checkpoint(name)
    ckpt_path = GOLDEN_DIR / f"{name}.ckpt"
    meta = session.checkpoint(ckpt_path)
    result = session.finish()
    payload = {
        "scheduler": scheduler,
        "rlc_mode": rlc_mode,
        "duration_s": duration_s,
        "config": dict(BASE_KWARGS, **overrides),
        "checkpoint_now_us": meta["now_us"],
        "completed_flows": result.completed_flows,
        "fingerprint": result_fingerprint(result),
    }
    meta_path = GOLDEN_DIR / f"{name}.json"
    meta_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ckpt_path.relative_to(GOLDEN_DIR.parent.parent)} "
          f"(v{meta['version']}, {meta['bytes']} bytes at t={meta['now_us']}us) "
          f"+ {meta_path.name}")


def main():
    for name in CASES:
        payload = run_case(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)} "
              f"({payload['summary']['completed_flows']} flows)")
    for name in SESSION_CASES:
        regen_session_checkpoint(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
