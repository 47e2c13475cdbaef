// Pull-based candidate iteration for the streaming cold path.
//
// BuildCandidates (diversification_pipeline.h) materializes the whole
// candidate block eagerly: every hit in R_q gets a document fetch and a
// snippet surrogate before selection even starts. CandidateStream
// exposes the same sequence lazily — relevance first (one division,
// computed exactly like BuildCandidates), the surrogate vector only on
// demand — so a scan driven by StreamingTopK's pruning bound pays the
// snippet extraction and the O(m·|R_q′|) cosine sums only for
// candidates that can still enter the top k.
//
// Everything here is FP-identical to the eager path by construction:
// the relevance normalizer is the same max-over-all-hits scan, the
// surrogate comes from the same SnippetExtractor call, and the utility
// row helper repeats UtilityComputer::Compute's exact per-cell
// arithmetic (the rank-discounted cosine sum × precomputed reciprocal
// harmonic, then the threshold) — multiplication by the reciprocal,
// not division, because the two round differently and bit-identity is
// the contract. Only the dot products inside the cosines take another
// route: a scatter-gather (core/kernels GatherDot) that adds the same
// products in the same order as TermVector::Dot's merge, plus an exact
// +0.0 for every reference term the candidate lacks (a masked product
// instead of a branch), which leaves the sum's bits unchanged.

#ifndef OPTSELECT_PIPELINE_CANDIDATE_STREAM_H_
#define OPTSELECT_PIPELINE_CANDIDATE_STREAM_H_

#include <cstddef>
#include <vector>

#include "corpus/document_store.h"
#include "index/searcher.h"
#include "index/snippet_extractor.h"
#include "text/term_vector.h"

namespace optselect {
namespace pipeline {

/// One specialization's reference data, viewed wherever it lives: a
/// StoredEntry's heap surrogates (results) or a mapped v4 entry's SoA
/// spans (spans) — either way, no ToProfiles copy. Exactly one of the
/// two pointers is set; both backings produce bit-identical utilities
/// because ComputeUtilityRow scores them with the two overloads of
/// kernels::GatherDot (heap entries, span columns), which add the same
/// products in the same order over equal term/weight/norm bits.
struct SpecializationRef {
  double probability = 0.0;
  /// Surrogate vectors of R_q′ in rank order. Non-owned.
  const std::vector<text::TermVector>* results = nullptr;
  /// Mapped surrogate spans of R_q′ in rank order. Non-owned.
  const std::vector<text::TermVectorSpan>* spans = nullptr;

  size_t result_count() const {
    if (results != nullptr) return results->size();
    return spans != nullptr ? spans->size() : 0;
  }
};

/// The per-specialization reciprocal normalizers 1/H_{|R_q′|} exactly
/// as UtilityComputer::Compute precomputes them (0 for empty lists).
std::vector<double> InverseHarmonics(
    const std::vector<SpecializationRef>& specs);

/// Writes the thresholded utility row Ũ(d|R_q′_j) for one surrogate
/// into row[0..m): bit-identical to the corresponding row of
/// UtilityComputer::Compute for the same inputs. The surrogate's
/// weights are scattered into a per-thread buffer indexed by its own
/// term ids, which must be vocabulary ids (the buffer grows to the
/// largest one, never to an id read from a stored surrogate), and every
/// reference surrogate is gathered against it. Safe to call from any
/// number of threads at once.
void ComputeUtilityRow(const text::TermVector& doc,
                       const std::vector<SpecializationRef>& specs,
                       const std::vector<double>& inv_harmonic,
                       double threshold_c, double* row);

/// Lazy iterator over a retrieval result. All pointers are non-owned
/// and must outlive the stream; the stream itself is cheap to
/// construct per request (one max-scan over the hit scores).
class CandidateStream {
 public:
  CandidateStream(const index::ResultList* rq,
                  const index::SnippetExtractor* snippets,
                  const corpus::DocumentStore* documents,
                  const std::vector<text::TermId>* query_terms);

  size_t size() const { return rq_->size(); }
  bool Done() const { return pos_ >= rq_->size(); }
  /// Index of the current candidate in R_q rank order.
  size_t position() const { return pos_; }

  /// Normalized relevance P(d|q) of the current candidate — no
  /// document fetch, no snippet work. Same value BuildCandidates
  /// assigns: score / max-over-all-hits (0 when the max is 0).
  double relevance() const {
    double score = (*rq_)[pos_].score;
    return max_score_ > 0 ? score / max_score_ : 0.0;
  }

  DocId doc() const { return (*rq_)[pos_].doc; }

  /// Materializes the current candidate's snippet surrogate (the
  /// expensive step pruning exists to skip). Valid until the next
  /// Materialize call.
  const text::TermVector& Materialize();

  /// Advances past the current candidate, materialized or not.
  void Advance() { ++pos_; }

  /// Candidates whose surrogate was actually extracted — the scan's
  /// cost counter (compare against size() for the prune rate).
  size_t materialized() const { return materialized_; }

 private:
  const index::ResultList* rq_;
  const index::SnippetExtractor* snippets_;
  const corpus::DocumentStore* documents_;
  const std::vector<text::TermId>* query_terms_;
  double max_score_ = 0.0;
  size_t pos_ = 0;
  size_t materialized_ = 0;
  text::TermVector current_;
};

}  // namespace pipeline
}  // namespace optselect

#endif  // OPTSELECT_PIPELINE_CANDIDATE_STREAM_H_
