"""Fresh-interpreter probe: set-up time and, optionally, peak memory of one run.

    python3 bench/child.py <src dir> <config> [<out dir> <subcommand args>...]

Times ``import fwdapprox`` plus the ``cli.load_*`` helpers on the config,
which every CLI call pays, rescaled to reference speed by the pure-Python
calibration kernel run before and after it.  With an output directory it then
runs each subcommand once (arguments joined by ``+``, e.g.
``converge+--markovian``) and reports the process's peak resident memory.
Prints one JSON line.
"""
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate


def main(argv: list[str]) -> None:
    cal_before = calibrate.python_kernel()
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    from fwdapprox import cli

    config = Path(argv[1])
    cfg = json.loads(config.read_text())
    params = cli.load_params(cfg)
    cli.load_model(cfg, config.parent, params)
    cli.load_driver(cfg, config.parent, int(cfg.get("seed", 0)))
    wall = time.perf_counter() - t0
    report = {"setup_wall_s": wall,
              "setup_s": calibrate.at_reference(wall, cal_before, calibrate.python_kernel(),
                                                calibrate.PYTHON_REF_S)}
    if len(argv) > 2:
        out, heads = argv[2], argv[3:]
        rcs = []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for head in heads:
                rcs.append(cli.main([*head.split("+"), "--config", str(config),
                                     "--out", out]))
        report["rcs"] = rcs
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
