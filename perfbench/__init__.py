"""End-to-end and per-layer benchmark of the growformer package.

``python3 perfbench/run.py --workload <train|eval|grow_analyze> --seed N
--seconds S --trace <0|1>`` runs one workload and prints its metrics as
the last line of standard output. ``run.py`` launches the workload
process, ``workloads.py`` holds the workloads and the timed loop,
``tracer.py`` the per-layer spans of a traced run, ``hostspeed.py`` the
host-speed reference that every end-to-end time is scaled to, and
``spread.py`` repeats runs over seeds to record the run-to-run spread.
"""
