// Store format v4 — one flat mmap-able file, served zero-copy.
//
// The retired formats v1–v3 were streams: a reader parsed the bytes
// into heap StoredEntry maps, duplicating every surrogate into
// std::vector-backed TermVectors. v4 is a *layout*: the same
// information arranged as 32-byte-aligned typed columns plus
// fixed-size descriptor tables, so a serving node mmaps the file,
// validates the checksums, builds a pointer-only index, and serves
// straight off the mapped pages — no per-entry parse, no surrogate
// copies, and one physical mapping shared by every shard.
//
// On-disk layout (little-endian, as written by this process):
//
//   offset 0 ─ 64-byte header
//     char[4]  magic            "OSV4"
//     u32      format_version   4
//     u32      endian_tag       0x01020304 (reader must see this value)
//     u32      alignment        32 (every column offset is a multiple)
//     u64      store_version    DiversificationStore::version()
//     u64      entry_count
//     u64      directory_offset → the directory struct below
//     u64      file_size        total bytes (truncation check)
//     u64      body_checksum    FNV-1a of bytes [64, file_size)
//     u64      header_checksum  FNV-1a of bytes [0, 56)
//
//   body ─ string pool (unaligned bytes: per entry, in key order:
//          normalized key, original query, spec queries)
//        ─ aligned columns, each padded to a 32-byte boundary:
//            per entry:      f64 probability[m]
//            per surrogate:  u32 terms[len] | f64 weights[len]
//            per plan:       u32 docs[n] | f64 relevance[n]
//                            f64 probability[m] | u32 spec_order[m]
//                            f64 utilities[n·m] | f64 weighted[n]
//        ─ descriptor tables (32-byte-aligned starts):
//            VecDesc[total_vecs]    32 B each
//            SpecDesc[total_specs]  32 B each
//            EntryDesc[entry_count] 64 B each, sorted by normalized key
//            PlanDesc[plan_count]   80 B each
//        ─ directory struct (72 B; header.directory_offset points here)
//            u64 entry_desc_off | u64 spec_desc_off | u64 vec_desc_off
//            u64 plan_desc_off  | u64 plan_count    | u64 total_specs
//            u64 total_vecs     | u64 string_pool_off
//            u64 string_pool_len
//
// The offset directory makes every access O(1): EntryDesc i names its
// spec-descriptor range, probability column, and (optionally) plan
// descriptor; SpecDesc names its surrogate-vector descriptor range;
// VecDesc points at the two SoA columns and carries the precomputed L2
// norm — exactly the bits TermVector::RecomputeNorm produced at build
// time, so mapped cosines match heap cosines bitwise.
//
// Lifecycle (RCU): a MappedStoreFile is immutable and refcounted.
// StoreSnapshots (and their EntryRefs, and any spans handed to a
// request in flight) share the mapping via shared_ptr; munmap happens
// in the destructor, i.e. only after the last reader drops — a hot
// reload can retire a snapshot while requests still read old pages.
//
// Readers and writers: DiversificationStore::Save emits this format
// (WriteV4), Map reads it, and Materialize copies a mapping into a
// heap store. v4 is the only format in the repository: any other
// bytes, a v1–v3 stream from an older release included, fail Map as
// corruption. FromStore encodes an in-memory store into the same bytes
// inside an anonymous read-only mapping, so a store that was never
// saved (an in-process build, a file whose plans were compiled for
// other serving params) is served through the same mapped view.

#ifndef OPTSELECT_STORE_MAPPED_STORE_H_
#define OPTSELECT_STORE_MAPPED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/candidate.h"
#include "core/select_view.h"
#include "store/diversification_store.h"
#include "util/status.h"
#include "util/types.h"

namespace optselect {
namespace store {

/// One specialization viewed in place: query bytes in the string pool,
/// surrogates as SoA spans over the mapped term/weight columns.
struct MappedSpecialization {
  std::string_view query;
  double probability = 0.0;
  /// Surrogate spans of R_q′ in rank order, pointing at mapped columns.
  std::vector<text::TermVectorSpan> surrogates;
};

/// A compiled query plan viewed in place (the v3 blocks as columns).
struct MappedPlan {
  uint32_t num_candidates_requested = 0;
  double threshold_c = 0.0;
  uint32_t num_candidates = 0;      ///< n
  uint32_t num_specializations = 0; ///< m
  const DocId* docs = nullptr;            ///< [n]
  const double* relevance = nullptr;      ///< [n]
  const double* probability = nullptr;    ///< [m]
  const uint32_t* spec_order = nullptr;   ///< [m]
  const double* utilities = nullptr;      ///< [n·m]
  const double* weighted = nullptr;       ///< [n]

  /// Same compatibility rule as QueryPlan::CompatibleWith.
  bool CompatibleWith(size_t wanted_candidates, double wanted_c) const {
    return num_candidates_requested == wanted_candidates &&
           threshold_c == wanted_c && num_candidates > 0;
  }

  /// Zero-copy selection view — the mapped twin of QueryPlan::View().
  core::DiversificationView View() const {
    core::DiversificationView v;
    v.num_candidates = num_candidates;
    v.num_specializations = num_specializations;
    v.relevance = relevance;
    v.probability = probability;
    v.utilities = utilities;
    v.weighted = weighted;
    v.spec_order = spec_order;
    return v;
  }
};

/// One stored entry viewed in place. Valid while the owning
/// MappedStoreFile is alive.
struct MappedEntry {
  std::string_view key;    ///< normalized query (the lookup key)
  std::string_view query;  ///< original query string
  std::vector<MappedSpecialization> specializations;
  /// [m] specialization probabilities as a contiguous mapped column —
  /// the streaming path's Begin() reads this directly.
  const double* probability_column = nullptr;
  bool has_plan = false;
  MappedPlan plan;
};

/// Page-warming strategy applied to a fresh mapping before serving.
enum class MapWarmup {
  kNone,     ///< demand-fault pages as requests touch them
  kMadvise,  ///< madvise(MADV_WILLNEED): async readahead of the file
  kMlock,    ///< mlock: fault and pin every page (falls back to madvise)
};

/// Parses "none" | "madvise" | "mlock" (the --map-warmup flag values);
/// false on anything else, leaving *out untouched.
bool ParseMapWarmup(std::string_view text, MapWarmup* out);

/// What Warm actually did — kMlock can degrade to kMadvise when
/// RLIMIT_MEMLOCK (or a missing CAP_IPC_LOCK) refuses the pin.
struct MapWarmupOutcome {
  MapWarmup applied = MapWarmup::kNone;
  bool fell_back = false;  ///< the requested mode was refused by the OS
  std::string detail;      ///< strerror text of the refusal, when any
};

/// An immutable, validated mmap of one v4 store image plus its
/// pointer-only index. Create with Map (a file) or FromStore (an
/// in-memory store); share via shared_ptr (snapshots, shard views, and
/// in-flight requests all hold references — the mapping is released
/// when the last one drops). A file mapping is MAP_SHARED + PROT_READ:
/// separate processes mapping the same file share physical pages
/// through the page cache. An image is private to its process.
class MappedStoreFile {
 public:
  /// Opens, mmaps (PROT_READ, MAP_SHARED) and fully validates `path`:
  /// header magic/version/endianness/alignment, both checksums, every
  /// descriptor and column offset bounds- and alignment-checked, ≥ 2
  /// specializations per entry, plan blocks consistent with their
  /// entry (size and probability equality — the PlanMatchesEntry
  /// rule), and the values serving computes with: every probability
  /// finite and in [0, 1], every surrogate weight and norm and every
  /// plan relevance, utility and weighted value finite. Returns
  /// kCorruption for any violation (a v1–v3 stream file included: it
  /// has no v4 magic), kIoError for OS errors.
  static util::Result<std::shared_ptr<const MappedStoreFile>> Map(
      const std::string& path);

  /// Serializes `store` into the v4 layout at `path`. Deterministic:
  /// identical stores produce identical bytes (entries are laid out in
  /// normalized-key order).
  static util::Status WriteV4(const DiversificationStore& store,
                              const std::string& path);

  /// Encodes `store` into the v4 layout inside an anonymous,
  /// page-aligned, PROT_READ mapping and indexes it with Map's
  /// validation: the bytes are the ones WriteV4 would write, so the
  /// entries, spans and plans equal what Save + Map give. kIoError
  /// when the OS refuses the mapping.
  static util::Result<std::shared_ptr<const MappedStoreFile>> FromStore(
      const DiversificationStore& store);

  ~MappedStoreFile();
  MappedStoreFile(const MappedStoreFile&) = delete;
  MappedStoreFile& operator=(const MappedStoreFile&) = delete;

  uint64_t store_version() const { return store_version_; }
  size_t entry_count() const { return entries_.size(); }
  const std::vector<MappedEntry>& entries() const { return entries_; }

  /// Lookup by normalized key; nullptr when absent. O(1).
  const MappedEntry* FindEntry(std::string_view normalized_key) const {
    auto it = index_.find(normalized_key);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  /// Deep copy into a heap DiversificationStore (content and version
  /// bit-identical to the store Save wrote the file from). Used by
  /// snapshot rebuilds — deltas mutate heap stores, not mappings.
  DiversificationStore Materialize() const;

  size_t mapped_bytes() const { return size_; }
  /// The whole mapped v4 image.
  std::string_view bytes() const { return {data_, size_}; }

  /// Entries whose compiled plan is absent or incompatible with the
  /// given serving params. Zero means a node can serve this mapping
  /// as-is — the same "nothing to recompile" condition the heap load
  /// path establishes with CompilePlans, checked without materializing.
  size_t MissingPlanCount(size_t num_candidates, double threshold_c) const;

  /// Applies the requested warm-up to the whole mapping. Never fails
  /// startup: a refused mlock degrades to madvise (outcome says so).
  MapWarmupOutcome Warm(MapWarmup requested) const;

 private:
  MappedStoreFile() = default;
  /// Parses + validates the mapped region, building entries_/index_.
  util::Status BuildIndex();

  const char* data_ = nullptr;
  size_t size_ = 0;
  int fd_ = -1;
  uint64_t store_version_ = 0;
  std::vector<MappedEntry> entries_;
  /// Keys are string_views into the mapped string pool.
  std::unordered_map<std::string_view, size_t> index_;
};

/// A lookup result that is either a heap StoredEntry or a mapped
/// MappedEntry, with uniform accessors for the serving hot path. Plain
/// pointers — the snapshot (and its mapping) must outlive the ref,
/// which the per-batch snapshot pin guarantees.
class EntryRef {
 public:
  EntryRef() = default;
  explicit EntryRef(const StoredEntry* heap) : heap_(heap) {}
  explicit EntryRef(const MappedEntry* mapped) : mapped_(mapped) {}

  explicit operator bool() const {
    return heap_ != nullptr || mapped_ != nullptr;
  }
  bool mapped() const { return mapped_ != nullptr; }
  const StoredEntry* heap_entry() const { return heap_; }

  size_t num_specializations() const {
    return heap_ != nullptr ? heap_->specializations.size()
                            : mapped_->specializations.size();
  }
  double spec_probability(size_t j) const {
    return heap_ != nullptr ? heap_->specializations[j].probability
                            : mapped_->specializations[j].probability;
  }
  /// Heap surrogate list for spec j; null when mapped.
  const std::vector<text::TermVector>* heap_surrogates(size_t j) const {
    return heap_ != nullptr ? &heap_->specializations[j].surrogates
                            : nullptr;
  }
  /// Mapped surrogate spans for spec j; null when heap-backed.
  const std::vector<text::TermVectorSpan>* spec_spans(size_t j) const {
    return mapped_ != nullptr ? &mapped_->specializations[j].surrogates
                              : nullptr;
  }

  bool HasCompatiblePlan(size_t num_candidates, double threshold_c) const {
    if (heap_ != nullptr) {
      return !heap_->plan.empty() &&
             heap_->plan.CompatibleWith(num_candidates, threshold_c);
    }
    return mapped_->has_plan &&
           mapped_->plan.CompatibleWith(num_candidates, threshold_c);
  }
  /// Plan accessors; only valid when HasCompatiblePlan (or a non-empty
  /// plan) holds.
  core::DiversificationView PlanView() const {
    return heap_ != nullptr ? heap_->plan.View() : mapped_->plan.View();
  }
  const DocId* PlanDocs() const {
    return heap_ != nullptr ? heap_->plan.docs.data()
                            : mapped_->plan.docs;
  }
  size_t PlanNumCandidates() const {
    return heap_ != nullptr ? heap_->plan.num_candidates()
                            : mapped_->plan.num_candidates;
  }
  size_t PlanNumSpecializations() const {
    return heap_ != nullptr ? heap_->plan.num_specializations()
                            : mapped_->plan.num_specializations;
  }

  /// Materializing fallback (copies surrogates into heap profiles) —
  /// the sharded-selection path needs owned vectors.
  std::vector<core::SpecializationProfile> ToProfiles() const;

 private:
  const StoredEntry* heap_ = nullptr;
  const MappedEntry* mapped_ = nullptr;
};

}  // namespace store
}  // namespace optselect

#endif  // OPTSELECT_STORE_MAPPED_STORE_H_
