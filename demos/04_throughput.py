"""
Per-event throughput of the trained pipeline
============================================

Events arrive one at a time, so the per-event cost of each stage decides
whether the pipeline can keep up with a live sensor. This demo trains a
small model, then times the activity filter, the feature layers, and
the whole cascade separately, each over the events that enter it.
"""

from evgesture import (
    DbsConfig, LayerSpec, PipelineConfig, SensorGeometry, benchmark,
    gen_gesture_set, train_pipeline,
)

geometry = SensorGeometry(64, 64, 2)
clips = gen_gesture_set(geometry, 4, seed=2)
config = PipelineConfig(
    layers=(LayerSpec(n=8, r=2, tau_us=10_000.0),),
    dbs=DbsConfig(),
    k=3,
    seed=2,
)
pipeline = train_pipeline(config, clips)

# Each stage runs 5 times over the same clips; the report keeps the
# median and the spread so a one-off scheduler hiccup does not skew it.
report = benchmark(pipeline, clips, runs=5)
print(f"timed {report.total_events} events per run, {report.runs} runs")
for stage in ("dbs", "layers", "full"):
    m = report.stages[stage]
    print(f"  {stage:>6}: {m['events_per_s']:>10.0f} ev/s over its "
          f"{int(m['events_in'])} input events, {int(m['events_out'])} out "
          f"(median over runs, spread {m['spread']:.0f} ev/s)")
slowest = min(("dbs", "layers"), key=lambda s: report.stages[s]["events_per_s"])
print(f"the full cascade is bounded by its slowest stage, here {slowest}; "
      "both take each clip's events in one compiled pass")
