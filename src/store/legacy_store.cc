#include "store/legacy_store.h"

#include <cstring>
#include <fstream>
#include <iterator>

#include "util/hash.h"
#include "util/strings.h"

namespace optselect {
namespace store {
namespace {

// Legacy binary layout, formats v1–v3 (little-endian, as written by
// this process):
//   magic "OSDS" | u32 format_version | [v2+: u64 store_version]
//                | u64 entry_count
//   per entry:   u32 query_len | bytes | u32 spec_count
//   per spec:    u32 query_len | bytes | f64 probability | u32 n_surrogates
//   per vector:  u32 n_entries | (u32 term, f64 weight)*
//   [v3+: per entry, after its specs — the compiled query plan]
//     u8 has_plan; when 1:
//       u32 num_candidates_requested | f64 threshold_c | u32 n | u32 m
//       n×u32 docs | n×f64 relevance | m×f64 probability
//       m×u32 spec_order | (n·m)×f64 utilities | n×f64 weighted
//   trailer:     u64 fnv1a checksum of everything after the header magic.
//
// Format v1 (the original `store.bin`) has no store_version field and
// is checksummed with the legacy basis below; it loads as content
// version 0. Format v2 adds the monotonic store_version that the
// snapshot-rebuild lifecycle bumps on every swap, and moves to the
// standard FNV-1a offset basis. Format v3 appends the compiled query
// plan blocks (store/query_plan.h) after each entry's specializations.
constexpr char kMagic[4] = {'O', 'S', 'D', 'S'};
constexpr uint32_t kLegacyVersion = 1;
constexpr uint32_t kV2Version = 2;
constexpr uint32_t kVersion = 3;

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool U32Array(std::vector<uint32_t>* out, size_t count) {
    out->clear();
    if (count == 0) return true;
    if (count > (size_ - pos_) / sizeof(uint32_t)) return false;
    out->resize(count);
    return Raw(out->data(), count * sizeof(uint32_t));
  }
  bool F64Array(std::vector<double>* out, size_t count) {
    out->clear();
    if (count == 0) return true;
    if (count > (size_ - pos_) / sizeof(double)) return false;
    out->resize(count);
    return Raw(out->data(), count * sizeof(double));
  }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (pos_ + len > size_) return false;
    s->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Raw(void* p, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Historical quirk, kept for reading v1 files: they were checksummed
// with this offset basis (the standard FNV-1a basis with its last
// decimal digit dropped). v2 files use the standard basis; the reader
// picks the basis from the format version it finds in the body.
constexpr uint64_t kV1ChecksumBasis = 1469598103934665603ull;

uint64_t ChecksumFor(uint32_t format_version, const char* data,
                     size_t size) {
  uint64_t basis = format_version <= kLegacyVersion
                       ? kV1ChecksumBasis
                       : util::kFnv1aOffsetBasis;
  return util::Fnv1a64(data, size, basis);
}

}  // namespace

util::Result<DiversificationStore> ReadLegacyStore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::IoError("cannot open for read: " + path);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (blob.size() < sizeof(kMagic) + sizeof(uint64_t)) {
    return util::Status::Corruption("file too short: " + path);
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return util::Status::Corruption("bad magic: " + path);
  }
  size_t body_size = blob.size() - sizeof(kMagic) - sizeof(uint64_t);
  const char* body = blob.data() + sizeof(kMagic);
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, body + body_size, sizeof(stored_checksum));

  // The format version picks the checksum basis, so read it (it is the
  // first body field) before verifying the trailer.
  Reader r(body, body_size);
  uint32_t version = 0;
  if (!r.U32(&version)) return util::Status::Corruption("truncated header");
  if (version != kLegacyVersion && version != kV2Version &&
      version != kVersion) {
    return util::Status::Corruption(
        util::StrFormat("unsupported version %u", version));
  }
  if (ChecksumFor(version, body, body_size) != stored_checksum) {
    return util::Status::Corruption("checksum mismatch: " + path);
  }

  uint64_t store_version = 0;
  if (version >= kV2Version && !r.U64(&store_version)) {
    return util::Status::Corruption("truncated store version");
  }
  uint64_t count = 0;
  if (!r.U64(&count)) return util::Status::Corruption("truncated count");

  DiversificationStore store;
  store.set_version(store_version);
  for (uint64_t e = 0; e < count; ++e) {
    StoredEntry entry;
    if (!r.Str(&entry.query)) return util::Status::Corruption("entry query");
    uint32_t n_specs = 0;
    if (!r.U32(&n_specs)) return util::Status::Corruption("spec count");
    for (uint32_t s = 0; s < n_specs; ++s) {
      StoredSpecialization sp;
      if (!r.Str(&sp.query) || !r.F64(&sp.probability)) {
        return util::Status::Corruption("spec header");
      }
      uint32_t n_surrogates = 0;
      if (!r.U32(&n_surrogates)) {
        return util::Status::Corruption("surrogate count");
      }
      for (uint32_t v = 0; v < n_surrogates; ++v) {
        uint32_t n_entries = 0;
        if (!r.U32(&n_entries)) {
          return util::Status::Corruption("vector size");
        }
        // Each entry is a u32 term and an f64 weight: a length the
        // bytes left cannot hold is corruption, and must be caught
        // before it sizes an allocation.
        if (n_entries > r.remaining() / (sizeof(uint32_t) + sizeof(double))) {
          return util::Status::Corruption("vector size exceeds the file");
        }
        std::vector<text::TermVector::Entry> vec_entries;
        vec_entries.reserve(n_entries);
        for (uint32_t t = 0; t < n_entries; ++t) {
          uint32_t term = 0;
          double weight = 0;
          if (!r.U32(&term) || !r.F64(&weight)) {
            return util::Status::Corruption("vector entry");
          }
          vec_entries.emplace_back(static_cast<text::TermId>(term), weight);
        }
        sp.surrogates.push_back(
            text::TermVector::FromEntries(std::move(vec_entries)));
      }
      entry.specializations.push_back(std::move(sp));
    }
    if (version >= kVersion) {
      uint8_t has_plan = 0;
      if (!r.U8(&has_plan)) return util::Status::Corruption("plan flag");
      if (has_plan != 0) {
        QueryPlan& plan = entry.plan;
        uint32_t n = 0, m = 0;
        if (!r.U32(&plan.num_candidates_requested) ||
            !r.F64(&plan.threshold_c) || !r.U32(&n) || !r.U32(&m)) {
          return util::Status::Corruption("plan header");
        }
        if (!r.U32Array(&plan.docs, n) || !r.F64Array(&plan.relevance, n) ||
            !r.F64Array(&plan.probability, m) ||
            !r.U32Array(&plan.spec_order, m) ||
            !r.F64Array(&plan.utilities,
                        static_cast<size_t>(n) * static_cast<size_t>(m)) ||
            !r.F64Array(&plan.weighted, n)) {
          return util::Status::Corruption("plan blocks");
        }
        // Put re-validates the plan against the entry and drops a
        // mismatch, so a file with stale plans loads as plan-less.
      }
    }
    OPTSELECT_RETURN_IF_ERROR(store.Put(std::move(entry)));
  }
  return store;
}

}  // namespace store
}  // namespace optselect
