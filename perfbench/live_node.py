"""Run the ``shardchain`` command with the span tracer installed.

The traced live-tcp episode starts its node process through this launcher
instead of ``python3 -m shardchain.cli``, so that the node's own layers
(``live.save_node``, ``live.load_node``, ``Node.*``, ...) are measured
too. Each request the server handles gets its own operation id. On exit
the spans go to ``BASE.bin``/``BASE.json`` and the per-layer aggregates to
``BASE.layers.json``.

    python3 perfbench/live_node.py BASE node --data-dir DIR --listen H:P
"""

import itertools
import json
import sys

import spans


def main() -> int:
    base, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from shardchain import cli, live

    handle = live.NodeServer.handle
    new_op = itertools.count(1).__next__

    def handle_as_op(self, env):
        tracer.op_id = new_op()
        return handle(self, env)

    live.NodeServer.handle = handle_as_op
    code = cli.main(argv)   # returns once SIGINT stops the server
    tracer.enabled = False
    with open(base + ".layers.json", "w") as fh:
        json.dump({"layers": tracer.aggregate(),
                   "counts": dict(tracer.counts)}, fh)
    tracer.write(base)
    return code


if __name__ == "__main__":
    sys.exit(main())
