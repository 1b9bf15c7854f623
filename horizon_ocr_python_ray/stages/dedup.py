"""Exact dedup: extract each distinct payload once per worker.

The reference's content-addressed response cache
(``/root/reference/docvision/azure/response_cache.py:66-91``) skips
recomputation for byte-identical inputs. Its distributed restatement is
the bounded content-hash memo inside the extraction stage
(``extract_stage.ExtractActor``): a worker that meets a payload hash it
has already extracted reuses the result, in the same streaming pass and
with no extra shuffle or driver-side registry. Extraction is
deterministic, so duplicates that land on different workers still get
identical bytes.
"""

#: Output columns of the extraction pipeline.
RESULT_COLS = ["url", "warc_ts", "lang", "route", "content_hash",
               "extracted_text", "spans", "error"]
