// The serving-side data structure of Section 4.1.
//
// "The only information we need are: the ambiguous queries, the list of
//  their possible specializations mined from a long-term query log, the
//  probabilities associated with such specializations, and the sets R_q′
//  of documents highly relevant for each specialization. [...] only short
//  summaries, and not whole documents, can be used without significative
//  loss in the precision of our method."
//
// A DiversificationStore holds exactly that: per ambiguous query, the
// mined specializations with P(q′|q) and the surrogate term vectors of
// R_q′. It is built offline from the mining stack + index, serialized to
// a compact binary file, and loaded by serving nodes that then answer
// "is q ambiguous, and what is its diversification input?" with no
// query-log or recommender in memory. SurrogatePayloadBytes measures
// the size the paper bounds by N·|S_q̂|·|R_q̂′|·L bytes.

#ifndef OPTSELECT_STORE_DIVERSIFICATION_STORE_H_
#define OPTSELECT_STORE_DIVERSIFICATION_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/candidate.h"
#include "store/query_plan.h"
#include "util/status.h"

namespace optselect {
namespace store {

/// One stored specialization: query string, probability, surrogates.
struct StoredSpecialization {
  std::string query;
  double probability = 0.0;
  /// Surrogate vectors of R_q′ in rank order.
  std::vector<text::TermVector> surrogates;
};

/// Everything needed to diversify one ambiguous query at serving time.
struct StoredEntry {
  std::string query;
  std::vector<StoredSpecialization> specializations;
  /// Compiled selection blocks (store v3 and later). Empty when the
  /// entry was built with plan compilation off (or read from a v1/v2
  /// file by store::ReadLegacyStore); serving then computes utilities
  /// per request. Derived data — Put drops a plan that no longer matches
  /// the mined content above, and StoredEntriesEqual deliberately
  /// ignores it.
  QueryPlan plan;
};

/// In-memory map of ambiguous queries with binary persistence.
class DiversificationStore {
 public:
  /// Inserts (or replaces) an entry. Entries with fewer than two
  /// specializations are rejected (not ambiguous by definition). The
  /// map key is util::NormalizeQueryText(entry.query) — two entries
  /// differing only in casing/spacing occupy one slot — while
  /// entry.query itself is stored untouched. A non-empty plan whose
  /// blocks are inconsistent or whose probabilities disagree with the
  /// entry's specializations (e.g. the caller perturbed the mined
  /// content without recompiling) is dropped, not stored: a stale plan
  /// would serve rankings computed under the old distribution.
  util::Status Put(StoredEntry entry);

  /// Looks up a query (normalized the same way as Put keys); nullptr
  /// when not stored (⇒ not ambiguous).
  const StoredEntry* Find(std::string_view query) const;

  /// Drops the entry for a query (normalized like Put keys). Returns
  /// false when no such entry existed. Used by delta rebuilds when a
  /// query stops being ambiguous under fresh log statistics.
  bool Remove(std::string_view query);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Monotonic build version of this store's *contents* — bumped by
  /// every snapshot rebuild (store::BuildSnapshot), persisted by Save,
  /// and surfaced by the serving tier so a swap is observable. This is
  /// independent of the on-disk *format* version (a format-v1 file,
  /// which predates it, converts as content version 0).
  uint64_t version() const { return version_; }
  void set_version(uint64_t version) { version_ = version; }

  /// Converts a stored entry into the specialization part of a
  /// DiversificationInput (candidates are filled by the caller from the
  /// live ranking).
  static std::vector<core::SpecializationProfile> ToProfiles(
      const StoredEntry& entry);

  /// Total bytes of surrogate payload currently held (Section 4.1's
  /// N·|S_q̂|·|R_q̂′|·L is the worst case of this number).
  uint64_t SurrogatePayloadBytes() const;

  /// Serializes all entries to `path` in the current v4 format — the
  /// flat, checksummed, mmap-able columnar layout of
  /// store/mapped_store.h, which carries version() and the compiled
  /// query plans and which serving nodes can map without parsing.
  /// Deterministic: identical stores produce identical bytes.
  util::Status Save(const std::string& path) const;

  /// Iteration support (read-only).
  const std::unordered_map<std::string, StoredEntry>& entries() const {
    return entries_;
  }

 private:
  std::unordered_map<std::string, StoredEntry> entries_;
  uint64_t version_ = 0;
};

/// Deep equality of two stored entries' *mined content* (query strings,
/// probabilities, surrogate vectors — not the derived plan). Used by
/// delta rebuilds to skip upserts that do not actually change an entry
/// — and therefore to avoid invalidating cached rankings that are still
/// bit-identical.
bool StoredEntriesEqual(const StoredEntry& a, const StoredEntry& b);

}  // namespace store
}  // namespace optselect

#endif  // OPTSELECT_STORE_DIVERSIFICATION_STORE_H_
