"""One repetition of a workload in a fresh interpreter.

    python3 child.py MODE ROOT CONFIG OUT_DIR THREADS

Imports bootchain from ROOT/src and parses the config once with load_config
(the set-up a user pays before the first replicate). MODE "setup" stops
there; "run" then runs the config in-process through bootchain.cli.main;
"trace" does the same traced, writing the spans to OUT_DIR/trace. The last
line of stdout is a JSON record of the timings.
"""

import json
import resource
import sys
import time


def _vm_hwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    mode, root, config, out_dir, threads = argv
    sys.path.insert(0, f"{root}/src")
    t0 = time.monotonic()
    import bootchain
    import bootchain.cli as cli
    from bootchain.config import load_config

    t1 = time.monotonic()
    load_config(config)
    t_ready = time.monotonic()  # compared with the parent's spawn time
    if mode == "setup":
        print(json.dumps({"t_ready": t_ready, "import_s": t1 - t0}))
        return 0

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer(f"{out_dir}/trace").install(bootchain)
    w0 = time.perf_counter()
    rc = cli.main(["run", config, "--out-dir", out_dir, "--threads", str(threads)])
    wall = time.perf_counter() - w0
    if tracer is not None:
        tracer.dump()
    # VmHWM is this image's own peak; ru_maxrss of RUSAGE_SELF would carry
    # over the peak of the parent that forked us before exec.
    peak_kb = max(_vm_hwm_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "rc": rc,
        "t_ready": t_ready,
        "import_s": t1 - t0,
        "wall_s": wall,
        "peak_rss_kb": peak_kb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
