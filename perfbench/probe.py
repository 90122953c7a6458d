"""Set-up time of one fresh interpreter: import neucrit, validate the
workload config, build the spectrum and nonlinearity, split the spectrum,
assemble the energy and evaluate it once.  Every CLI invocation pays this.

Started by run.py; prints the raw and the speed-scaled set-up time (see
speed.py) as a JSON object on its last line.
"""

import json
import sys
import time

import speed
import workloads


def main(workload: str, seed: int) -> int:
    sampler = speed.Sampler()
    sampler.sample()
    setup = _setup(workload, seed)
    sampler.sample()
    print(json.dumps({"setup_s": setup, "scaled_setup_s": sampler.scaled(setup)}))
    return 0


def _setup(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    import neucrit as nc

    cfg = nc.validate_config(workloads.config(workload, seed))
    dom = cfg["domain"]
    spec = nc.build_spectrum(
        nc.Domain(dom["kind"], tuple(dom["lengths"]), dom.get("quad_points")),
        cfg["modes"])
    nl = cfg["nonlinearity"]
    f = nc.build_nonlinearity([tuple(k) for k in nl["knots"]],
                              nl["slope_minus_inf"], nl["slope_plus_inf"],
                              blend_margin=nl["blend_margin"])
    spec = nc.split_spectrum(spec, f.slope_plus_inf)
    func = nc.EnergyFunctional(spec, f)
    func.value(spec.constant_field(0.5))
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
