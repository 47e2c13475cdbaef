#include "pipeline/candidate_stream.h"

#include <algorithm>

#include "core/kernels/kernels.h"
#include "util/math_util.h"

namespace optselect {
namespace pipeline {

std::vector<double> InverseHarmonics(
    const std::vector<SpecializationRef>& specs) {
  std::vector<double> inv(specs.size(), 0.0);
  for (size_t j = 0; j < specs.size(); ++j) {
    size_t len = specs[j].result_count();
    inv[j] = len == 0 ? 0.0 : 1.0 / util::HarmonicNumber(len);
  }
  return inv;
}

namespace {

/// TermVector::Cosine's arithmetic over an already computed dot.
double ClampedCosine(double dot, double a_norm, double b_norm) {
  double c = dot / (a_norm * b_norm);
  if (c < 0.0) return 0.0;
  if (c > 1.0) return 1.0;
  return c;
}

}  // namespace

void ComputeUtilityRow(const text::TermVector& doc,
                       const std::vector<SpecializationRef>& specs,
                       const std::vector<double>& inv_harmonic,
                       double threshold_c, double* row) {
  // Zero outside a call; holds doc's weights at doc's term ids during
  // one.
  thread_local std::vector<double> dense;
  const std::vector<text::TermVector::Entry>& entries = doc.entries();
  const size_t dense_size =
      entries.empty() ? 0 : static_cast<size_t>(entries.back().first) + 1;
  if (dense.size() < dense_size) dense.resize(dense_size, 0.0);
  for (const text::TermVector::Entry& e : entries) dense[e.first] = e.second;

  const double norm = doc.norm();
  for (size_t j = 0; j < specs.size(); ++j) {
    const SpecializationRef& spec = specs[j];
    // UtilityComputer::RawUtility: Σ_r cosine(d, d′_r) / rank, with
    // TermVector::Cosine's zero-norm rule.
    double raw = 0.0;
    for (size_t r = 0; r < spec.result_count(); ++r) {
      double c = 0.0;
      if (spec.results != nullptr) {
        const text::TermVector& ref = (*spec.results)[r];
        if (norm != 0.0 && ref.norm() != 0.0) {
          c = ClampedCosine(
              core::kernels::GatherDot(dense.data(), dense_size,
                                       ref.entries().data(), ref.size()),
              norm, ref.norm());
        }
      } else {
        const text::TermVectorSpan& ref = (*spec.spans)[r];
        if (norm != 0.0 && ref.norm != 0.0) {
          c = ClampedCosine(
              core::kernels::GatherDot(dense.data(), dense_size, ref.terms,
                                       ref.weights, ref.size),
              norm, ref.norm);
        }
      }
      raw += c / static_cast<double>(r + 1);
    }
    double u = raw * inv_harmonic[j];
    if (u < threshold_c) u = 0.0;
    row[j] = u;
  }

  for (const text::TermVector::Entry& e : entries) dense[e.first] = 0.0;
}

CandidateStream::CandidateStream(
    const index::ResultList* rq, const index::SnippetExtractor* snippets,
    const corpus::DocumentStore* documents,
    const std::vector<text::TermId>* query_terms)
    : rq_(rq),
      snippets_(snippets),
      documents_(documents),
      query_terms_(query_terms) {
  if (rq_->empty()) return;
  max_score_ = rq_->front().score;
  for (const index::SearchResult& hit : *rq_) {
    max_score_ = std::max(max_score_, hit.score);
  }
}

const text::TermVector& CandidateStream::Materialize() {
  current_ = snippets_->ExtractVector(documents_->Get((*rq_)[pos_].doc),
                                      *query_terms_);
  ++materialized_;
  return current_;
}

}  // namespace pipeline
}  // namespace optselect
