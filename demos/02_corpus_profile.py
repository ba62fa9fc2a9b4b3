"""
Profiling one document against the rest of a corpus
===================================================

Generate a small three-topic corpus, look at a document's dominant terms,
and chart which terms it over- and under-uses relative to everyone else
(the signed log10 ratio that the ``scatter`` CLI subcommand emits as CSV).
"""

import math

from layerstack import synthetic_corpus, top_k_terms
from layerstack.corpus import shared_proportions

# 12 documents over 3 topics (6 + 4 + 2), deterministic for a fixed seed.
corpus, topic_of = synthetic_corpus((6, 4, 2), seed=7)
doc = corpus.get("doc000")
print(f"{doc.id} ({doc.title}): {doc.total_tokens} tokens, topic {topic_of[doc.id]}")

# Its ten most frequent terms.
print("\ntop terms:")
for term, count in top_k_terms(doc, 10):
    print(f"  {term:<12} {count}")

# Compare the document's term proportions against the pooled counts of
# every OTHER document; the deviation is log10(doc share / rest share).
# The corpus's count table holds each document as a row of term ids and
# counts, and each term's total over every row; taking this row's counts
# back out of the totals leaves the rest of the corpus.
table = corpus.table
row = corpus.position(doc.id)
lo, hi = table.indptr[row], table.indptr[row + 1]
ids, counts = table.term_ids[lo:hi], table.counts[lo:hi]
rest = table.term_totals[ids] - counts
rest_total = int(table.counts.sum()) - doc.total_tokens
shared, doc_props, rest_props = shared_proportions(counts, doc.total_tokens, rest, rest_total)
terms = [table.terms[i] for i in ids[shared].tolist()]
print(f"\n{len(terms)} terms appear on both sides of the comparison")

# Most over-used and most under-used terms: the topic-specific vocabulary
# shows up at the top, the shared filler vocabulary sits near zero.
points = [
    (term, dp, rp, math.log10(dp) - math.log10(rp))
    for term, dp, rp in zip(terms, doc_props, rest_props)
]
by_deviation = sorted(points, key=lambda p: p[3], reverse=True)
print("\nmost over-used (positive deviation):")
for term, dp, rp, dev in by_deviation[:5]:
    print(f"  {term:<12} doc {dp:.4f}  rest {rp:.4f}  dev {dev:+.3f}")
print("most under-used (negative deviation):")
for term, dp, rp, dev in by_deviation[-5:]:
    print(f"  {term:<12} doc {dp:.4f}  rest {rp:.4f}  dev {dev:+.3f}")
