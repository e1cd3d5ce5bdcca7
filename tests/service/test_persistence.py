"""The job path never renames over an existing file.

On ext4 (``auto_da_alloc``) an ``os.replace`` onto an existing file
flushes the source's data before it returns — tens of milliseconds,
where an append or a rename to a fresh name costs microseconds
(docs/performance.md, "Persistence").  Job records and the cache
manifest are therefore append-only journals; this guard holds on any
filesystem, because it records the calls instead of timing them.
"""

from __future__ import annotations

import os

from repro.core.params import MiningParameters
from repro.service.jobs import JobState
from repro.service.service import MiningService


def _page_through(service, job_id):
    pages, offset = 0, 0
    while offset is not None:
        page = service.result_page(job_id, offset=offset, limit=1)
        offset = page["page"]["next_offset"]
        pages += 1
    return pages


def test_job_path_never_renames_over_an_existing_file(
    tmp_path, monkeypatch, running_example
):
    calls, over = [], []
    real_replace = os.replace

    def recording_replace(src, dst, *args, **kwargs):
        calls.append(str(dst))
        if os.path.exists(dst):
            over.append(str(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", recording_replace)
    params = MiningParameters(
        min_genes=2, min_conditions=5, gamma=0.15, epsilon=0.1
    )
    service = MiningService(tmp_path / "store")

    first = service.submit(running_example, params)
    assert service.run_pending() == 1
    assert service.status(first.job_id).state is JobState.DONE
    assert _page_through(service, first.job_id) > 1

    again = service.submit(running_example, params)  # resubmission
    assert again.state is JobState.DONE
    assert _page_through(service, again.job_id) > 1

    other = service.submit(running_example, params.with_overrides(epsilon=0.2))
    assert service.run_pending() == 1
    done = service.status(other.job_id)
    assert done.state is JobState.DONE and done.index_cache_hit
    _page_through(service, other.job_id)

    assert calls  # artifacts and checkpoints still rename, to fresh names
    assert over == []
