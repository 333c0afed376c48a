"""Size ladder: solve_power_flow, jacobian_h and estimate on tiled IEEE-14 grids.

    python3 bench/ladder.py

Run from the repository root. Grids of 1, 4, 8 and 16 tiles are made by the
benchmark's own tiling recipe (workloads.write_tiled_case) under
bench/out/ladder/; BLAS is pinned to one thread as in run.py. Prints a
markdown table of medians over REPEATS calls.
"""
import statistics
import sys
import time

from run import BENCH, ROOT  # importing run pins BLAS/OpenMP to one thread, before numpy loads

sys.path.insert(0, str(ROOT / "src"))

from gridse import (build_ybus, estimate, full_measurement_plan, generate_measurements,  # noqa: E402
                    jacobian_h, load_case, solve_power_flow)

import workloads  # noqa: E402

TILES = (1, 4, 8, 16)
REPEATS = 7


def median_ms(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), result


def main():
    print("| buses | m | n | pf ms (iters) | jacobian_h ms | estimate ms (iters) |")
    print("|---:|---:|---:|---:|---:|---:|")
    for tiles in TILES:
        case = workloads.write_tiled_case(ROOT / workloads.IEEE14, tiles, BENCH / "out" / "ladder" / f"tiles{tiles}")
        net = load_case(case).network
        pf_ms, pf = median_ms(lambda: solve_power_flow(net))
        ybus = build_ybus(net)
        mset = generate_measurements(pf.state, full_measurement_plan(net), 7, net, ybus)
        h_ms, _ = median_ms(lambda: jacobian_h(mset, pf.state, net, ybus))
        est_ms, est = median_ms(lambda: estimate(net, mset))
        print(f"| {net.n_buses} | {len(mset)} | {2 * net.n_buses - 1} | {pf_ms:.1f} ({pf.iterations}) "
              f"| {h_ms:.1f} | {est_ms:.1f} ({est.iterations}) |")


if __name__ == "__main__":
    main()
