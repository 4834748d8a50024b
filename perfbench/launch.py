"""Start one ``repro`` subcommand, optionally with layer spans recorded.

Usage (from the checkout root)::

    python3 perfbench/launch.py [--spans-dir DIR] -- gateway --listen ...
    python3 perfbench/launch.py [--spans-dir DIR] -- site --listen ...

The program is imported from the checkout's ``src`` directory.  With
``--spans-dir`` the wrappers of :mod:`layers` are installed before
``repro.cli.main`` runs, and every process of the command writes its spans
under ``DIR`` when it exits.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    spans_dir = None
    if argv[:1] == ["--spans-dir"]:
        spans_dir, argv = argv[1], argv[2:]
    if argv[:1] != ["--"] or len(argv) < 2:
        print("usage: launch.py [--spans-dir DIR] -- SUBCOMMAND ...",
              file=sys.stderr)
        return 2
    argv = argv[1:]
    from repro import cli

    if spans_dir is None:
        return cli.main(argv)
    import layers

    recorder = layers.SpanRecorder()
    patches = layers.Patches(recorder)
    if argv[0] == "gateway":
        layers.install_gateway(patches, spans_dir)
    elif argv[0] == "site":
        layers.install_site(patches)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_dir, argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
