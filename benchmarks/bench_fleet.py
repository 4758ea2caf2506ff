"""Fleet-scale reliability sweep: codes x placements x failure models.

Shards stripes of each code family over a rack/machine/disk cluster and
runs the event-driven fleet simulator per cell, recording data-loss
probability, unavailability, repair traffic, and repair-time stretch.
This is the datacenter-scale counterpart of the single-array MTTDL
benchmarks: the 3DFT families (TIP, STAR, Cauchy-RS) and the locality
family (XORBAS LRC) face the *same* correlated failures, placements,
and contended repair bandwidth, so their numbers are directly
comparable.

Three failure environments:

* ``independent`` — exponential disk lifetimes only (the single-array
  assumption scaled out; the control).
* ``correlated`` — the field-study preset: latent sectors, machine
  crashes, rack power events, partitions, mild failure bursts.
* ``stress`` — a hostile cell: short lifetimes, strong same-rack
  failure bursts, and a starved repair path, hot enough that stripe
  loss becomes observable within the horizon even for 3DFT codes.

``REPRO_BENCH_FLEET_TRIALS`` / ``REPRO_BENCH_FLEET_STRIPES`` shrink the
sweep for CI smoke runs; the shape assertions hold at every size, the
loss-observability assertion arms only at full size.
"""

import os

from _common import emit, format_table, full_size, record_json

from repro.fleet import FleetScenario, run_fleet_trials

TRIALS_ENV = "REPRO_BENCH_FLEET_TRIALS"
STRIPES_ENV = "REPRO_BENCH_FLEET_STRIPES"

#: The comparison set: three 3DFT array codes at n=8 plus the canonical
#: XORBAS LRC(10, 6, 2) locality instance.
CODES = ("tip", "star", "cauchy-rs", "xorbas")
PLACEMENTS = ("random", "copyset", "pss")

#: The hostile environment: same disk lifetimes as the correlated
#: baseline, but tripled same-rack burst pressure (still subcritical,
#: expected fanout 0.6). At full size a repair job moves ~125 GiB per
#: failed disk, so bursty failures overlap those long rebuild windows —
#: which is what kills 3DFT stripes. Tuned so loss is observable but
#: not total (total loss would make every code look alike).
STRESS_MODEL = {
    "disk_lifetime": 8000.0,
    "latent_rate": 1e-4,
    "scrub_interval_hours": 168.0,
    "machine_failure_rate": 1e-3,
    "rack_failure_rate": 1e-4,
    "burst_probability": 0.3,
    "burst_fanout": 2,
    "burst_window_hours": 6.0,
}
MODELS = (
    ("independent", "independent"),
    ("correlated", "correlated"),
    ("stress", STRESS_MODEL),
)

TOPOLOGY = "4x4x4"
MTTF_HOURS = 8000.0
SEED = 2015


def sweep():
    trials = int(os.environ.get(TRIALS_ENV, "3"))
    stripes = int(os.environ.get(STRIPES_ENV, "1000"))
    cells = {}
    for code in CODES:
        for placement in PLACEMENTS:
            for model_name, model in MODELS:
                scenario = FleetScenario(
                    topology=TOPOLOGY,
                    code=code,
                    n=8,
                    placement=placement,
                    failure_model=model,
                    mttf_hours=(
                        MTTF_HOURS if isinstance(model, str) else None
                    ),
                    stripes=stripes,
                    duration_hours=87_600.0,
                    chunk_mib=1024.0,
                    disk_mib_s=40.0,
                    cross_rack_mib_s=120.0,
                    seed=SEED,
                )
                summary = run_fleet_trials(scenario, trials=trials)
                label = f"{code}/{placement}/{model_name}"
                cells[label] = (scenario, summary)
    return cells


def test_fleet_sweep(benchmark):
    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for label, (scenario, s) in cells.items():
        rows.append([
            label,
            f"{s.loss_trial_fraction:.2f}",
            f"{s.mean_loss_probability:.3e}",
            f"{s.mean_unavailability:.3e}",
            f"{s.mean_repair_hours:.2f}",
            f"{s.mean_cross_rack_read_mib / 1024:.0f}",
        ])
        record_json(f"fleet_{label.replace('/', '_')}", {
            "scenario": scenario.to_dict(),
            "trials": s.trials,
            "seed": scenario.seed,
            "loss_trial_fraction": s.loss_trial_fraction,
            "mean_loss_probability": s.mean_loss_probability,
            "mean_unavailability": s.mean_unavailability,
            "mean_repair_read_mib": s.mean_repair_read_mib,
            "mean_repair_write_mib": s.mean_repair_write_mib,
            "mean_cross_rack_read_mib": s.mean_cross_rack_read_mib,
            "mean_repair_hours": s.mean_repair_hours,
            "total_losses": s.total_losses,
        })
    emit(
        "fleet_reliability_sweep",
        format_table(
            ["cell", "loss trials", "P(stripe loss)", "unavail",
             "repair h", "x-rack GiB"],
            rows,
        ),
    )

    def cell(code, placement, model):
        return cells[f"{code}/{placement}/{model}"][1]

    # Locality pays off on the wire: XORBAS moves fewer repair reads
    # per rebuilt chunk than a same-width MDS decode. Repair writes are
    # one chunk per rebuilt chunk, so read/write is the amplification.
    def read_amplification(summary):
        return summary.mean_repair_read_mib / max(
            summary.mean_repair_write_mib, 1e-9
        )

    for placement in PLACEMENTS:
        xorbas = cell("xorbas", placement, "correlated")
        mds = cell("cauchy-rs", placement, "correlated")
        assert read_amplification(xorbas) < 0.75 * read_amplification(mds), (
            placement
        )

    # Correlated failure domains create unavailability that independent
    # disk failures cannot (a 3DFT stripe never goes unavailable from
    # one machine outage, but latent+machine+rack overlaps do occur).
    for code in CODES:
        independent = cell(code, "random", "independent")
        correlated = cell(code, "random", "correlated")
        assert correlated.mean_unavailability >= (
            independent.mean_unavailability
        ), code

    # The stress environment must dominate the correlated baseline in
    # repair pressure: short lifetimes plus bursts move far more repair
    # traffic over the horizon. (Mean repair *time* is not monotone —
    # once stripes are lost they drop out of later rebuild jobs.)
    for code in CODES:
        stress = cell(code, "random", "stress")
        correlated = cell(code, "random", "correlated")
        assert stress.mean_repair_read_mib > correlated.mean_repair_read_mib

    if full_size((TRIALS_ENV, STRIPES_ENV)):
        # At full size the stress cells must make loss observable —
        # the whole point of recording the sweep (3DFT codes shrug off
        # the default rates; the hostile cell is where they differ).
        stress_losses = sum(
            s.total_losses
            for label, (_, s) in cells.items()
            if label.endswith("/stress")
        )
        assert stress_losses > 0
