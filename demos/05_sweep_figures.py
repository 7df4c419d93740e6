"""Monte-Carlo sweeps: reproducible CSV tables and SVG figures.

The sweep harness evaluates an experiment over a grid of copy counts N and
noise half-widths m, drawing every splitter reflectivity uniformly from
[0.5 - m, 0.5 + m]. Each (N, m) cell has its own RNG stream keyed by
(seed, experiment, N, m-index), and trial t reads the next 2N draws of it, so
results are byte-reproducible regardless of execution order.

This demo runs a compact version of each of the three experiments, prints the
headline numbers, and writes the CSV tables plus SVG line plots next to this
script (demo_*.csv / demo_*.svg).
"""

import pathlib

from avgfusion import SweepConfig, run_sweep, write_csv, write_svg
from avgfusion.sweep import DEFAULT_PLOT_METRIC

print(__doc__)

here = pathlib.Path(__file__).resolve().parent
samples = 60

configs = {
    "fusion": SweepConfig(
        experiment="fusion",
        n_copies_list=(1, 2, 3),
        m_grid=(0.0, 0.1, 0.2, 0.3, 0.4),
        samples=samples,
        master_seed=42,
    ),
    "bsm": SweepConfig(
        experiment="bsm",
        n_copies_list=(1, 2, 3),
        m_grid=(0.0, 0.1, 0.2, 0.3, 0.4),
        samples=samples,
        master_seed=42,
    ),
    "trace-distance": SweepConfig(
        experiment="trace-distance",
        n_copies_list=(1, 2, 3, 4, 5, 6),
        m_grid=(0.2,),
        samples=samples,
        master_seed=7,
    ),
}

csv_names = {
    "fusion": "demo_fusion.csv",
    "bsm": "demo_bsm.csv",
    "trace-distance": "demo_trace.csv",
}

for name, cfg in configs.items():
    result = run_sweep(cfg)
    csv_path = here / csv_names[name]
    svg_path = here / f"demo_{name.replace('-', '_')}.svg"
    write_csv(result, csv_path)
    write_svg(result, svg_path)
    metric = DEFAULT_PLOT_METRIC[name]  # the metric the SVG plots
    print(f"--- {name}: mean {metric} per (N, m) cell ---")
    for cell in result.cells:
        print(f"  N={cell.n_copies} m={cell.m:.1f}: {cell.mean[metric]:.4f} +/- {cell.std[metric]:.4f}")
    print(f"  wrote {csv_path} and {svg_path}")
    print()

print("Open the SVG files in a browser: one line per copy count N, error bars")
print("showing the per-cell standard deviation.")
