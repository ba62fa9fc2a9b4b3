"""
Profiling one document against the rest of a corpus
===================================================

Generate a small three-topic corpus, look at a document's dominant terms,
and chart which terms it over- and under-uses relative to everyone else
(the signed log10 ratio that the ``scatter`` CLI subcommand emits as CSV).
"""

import math

from layerstack import frequency_scatter, synthetic_corpus, top_k_terms

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
reference = corpus.leave_one_out_counts(doc.id)
terms, doc_props, rest_props = frequency_scatter(doc, reference, sum(reference.values()))
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
