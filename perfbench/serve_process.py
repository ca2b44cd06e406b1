"""The policy server as its own process, for the serve-replay workload.

Binds an ephemeral port and prints ``{"port": N}`` — read from
``server.address``, because ``PolicyServer.port`` keeps the requested 0 —
then serves until its standard input closes (the benchmark closed it, or
died), drains, and prints ``{"maxrss_kb": N}`` for the peak-RSS metric.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys

from repro.serve.server import PolicyServer, ServeConfig


async def serve() -> None:
    server = PolicyServer(ServeConfig(), host="127.0.0.1", port=0)
    await server.start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    await server.drain()


def main() -> int:
    asyncio.run(serve())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
