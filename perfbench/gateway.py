"""Run one ``repro.server`` gateway as a child process of the benchmark.

Usage::

    python3 perfbench/gateway.py CONFIG_JSON [--trace]

``CONFIG_JSON`` holds :class:`repro.server.GatewayConfig` keyword
arguments; its ``session_defaults`` entry is a ``SessionConfig`` dict.
The gateway binds an ephemeral loopback port and prints ``ready <port>``.
It then obeys one command per line on standard input, answering ``ok``:

``on`` / ``off``
    switch span recording (only with ``--trace``, which installs the
    wrappers of :mod:`tracing` before the gateway is built);
``dump PATH``
    write the spans and counters recorded so far to ``PATH``.

End of input closes the gateway gracefully (every session is closed,
durable ones checkpoint first) and the process exits.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


async def main(config: dict, traced: bool) -> None:
    from repro.server import GatewayConfig, serve
    from repro.service import SessionConfig

    tracer = None
    if traced:
        import tracing

        tracing.install()
        tracer = tracing.TRACER
    config = dict(config)
    config["session_defaults"] = SessionConfig.from_dict(config["session_defaults"])
    server = await serve(GatewayConfig(**config))
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    print(f"ready {server.port}", flush=True)
    try:
        while True:
            line = (await commands.readline()).decode().split()
            if not line:
                break
            if tracer is not None and line[0] in ("on", "off"):
                tracer.switch(line[0] == "on")
            elif tracer is not None and line[0] == "dump":
                tracer.dump(line[1])
            else:
                print(f"error: unknown command {line!r}", flush=True)
                continue
            print("ok", flush=True)
    finally:
        await server.close()


if __name__ == "__main__":
    asyncio.run(main(json.loads(sys.argv[1]), "--trace" in sys.argv[2:]))
