"""A serving daemon does not grow with the requests it has served.

Same bound as ``tests/sched/test_retention.py``, measured through
:class:`QueryService` on an asyncio loop: every resolved request leaves
only its share of the lane's ledgers behind.
"""

import asyncio
import gc
import random
import tracemalloc

from repro.core.operation import Operation
from repro.serve import QueryService, TenantQuota, build_profile

K = 64
TENANTS = 4
CLIENTS = 16
#: Retained bytes allowed per served request.  A lane scheduler that
#: keeps every submission alive retains about 700 B per request.
MAX_BYTES_PER_REQUEST = 64


def test_daemon_keeps_no_per_request_history():
    network, config = build_profile(rows=4, cols=4, k=K, parallelism=8)
    rng = random.Random(0)
    ops = [
        Operation.query(
            f"t{i % TENANTS}", rng.sample(range(K), rng.randint(1, 4))
        )
        for i in range(64)
    ]

    async def run():
        service = QueryService(
            tenants=[TenantQuota(f"t{t}") for t in range(TENANTS)],
            memo=False,
        )
        service.add_profile(network, config)

        async def serve(n):
            async def client(c):
                for i in range(c, n, CLIENTS):
                    await service.submit(ops[i % len(ops)])

            await asyncio.gather(*(client(c) for c in range(CLIENTS)))

        await serve(2_000)  # warm up the lane, tenants and ledgers
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            await serve(20_000)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        await service.drain()
        assert service.completed == 22_000
        return (after - before) / 20_000

    per_request = asyncio.run(run())
    assert per_request <= MAX_BYTES_PER_REQUEST, per_request
