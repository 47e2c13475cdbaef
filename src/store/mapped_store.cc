#include "store/mapped_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>

#include "util/hash.h"
#include "util/strings.h"

namespace optselect {
namespace store {
namespace {

constexpr char kV4Magic[4] = {'O', 'S', 'V', '4'};
constexpr uint32_t kV4FormatVersion = 4;
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint32_t kAlignment = 32;
constexpr size_t kHeaderSize = 64;
constexpr size_t kDirectorySize = 9 * sizeof(uint64_t);
constexpr size_t kVecDescSize = 32;
constexpr size_t kSpecDescSize = 32;
constexpr size_t kEntryDescSize = 64;
constexpr size_t kPlanDescSize = 80;

/// The directory struct at header.directory_offset (see mapped_store.h
/// for the layout comment). Field-by-field (de)serialized — never
/// memcpy'd as a struct — so padding rules cannot change the format.
struct Directory {
  uint64_t entry_desc_off = 0;
  uint64_t spec_desc_off = 0;
  uint64_t vec_desc_off = 0;
  uint64_t plan_desc_off = 0;
  uint64_t plan_count = 0;
  uint64_t total_specs = 0;
  uint64_t total_vecs = 0;
  uint64_t string_pool_off = 0;
  uint64_t string_pool_len = 0;
};

/// Append-only little-endian buffer with alignment padding — the v4
/// writer's backing. All multi-byte writes are memcpy (host is
/// little-endian by the endian_tag contract).
class Out {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bytes(std::string_view s) { Raw(s.data(), s.size()); }
  void U32Array(const uint32_t* p, size_t count) {
    if (count > 0) Raw(p, count * sizeof(uint32_t));
  }
  void F64Array(const double* p, size_t count) {
    if (count > 0) Raw(p, count * sizeof(double));
  }
  /// Pads with zero bytes to the next multiple of `alignment`.
  void Align(size_t alignment) {
    buf_.append((alignment - buf_.size() % alignment) % alignment, '\0');
  }
  size_t Tell() const { return buf_.size(); }
  std::string& buffer() { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian reads at absolute offsets into the
/// mapped region. Every accessor fails closed (false) on overrun.
class In {
 public:
  In(const char* data, size_t size) : data_(data), size_(size) {}

  bool InRange(uint64_t off, uint64_t len) const {
    return off <= size_ && len <= size_ - off;
  }
  bool U32At(uint64_t off, uint32_t* v) const {
    return CopyAt(off, v, sizeof(*v));
  }
  bool U64At(uint64_t off, uint64_t* v) const {
    return CopyAt(off, v, sizeof(*v));
  }
  bool F64At(uint64_t off, double* v) const {
    return CopyAt(off, v, sizeof(*v));
  }
  bool StrAt(uint64_t off, uint64_t len, std::string_view* s) const {
    if (!InRange(off, len)) return false;
    *s = std::string_view(data_ + off, len);
    return true;
  }
  const char* ptr(uint64_t off) const { return data_ + off; }

 private:
  bool CopyAt(uint64_t off, void* v, size_t n) const {
    if (!InRange(off, n)) return false;
    std::memcpy(v, data_ + off, n);
    return true;
  }
  const char* data_;
  size_t size_;
};

util::Status Corrupt(const std::string& what) {
  return util::Status::Corruption("store v4: " + what);
}

bool AllFinite(const double* values, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

/// A mapped column pointer: offset must be in range for `len` elements
/// and sit on the 32-byte grid the writer guarantees (the mmap base is
/// page-aligned, so in-file alignment is absolute alignment).
template <typename T>
bool Column(const In& in, uint64_t off, uint64_t len, const T** out) {
  if (off % kAlignment != 0) return false;
  if (len > (uint64_t)-1 / sizeof(T)) return false;
  if (!in.InRange(off, len * sizeof(T))) return false;
  *out = reinterpret_cast<const T*>(in.ptr(off));
  return true;
}

/// The v4 encoder: `store` laid out as one v4 image (header, string
/// pool, aligned columns, descriptor tables, directory). Deterministic:
/// entries in normalized-key order, so identical stores encode to
/// identical bytes whether they go to a file (WriteV4) or to an
/// anonymous mapping (FromStore).
std::string EncodeV4(const DiversificationStore& store) {
  // Deterministic layout: entries in normalized-key order (the map key,
  // which EntryDescs must be sorted by for the reader's contract).
  std::vector<std::pair<std::string_view, const StoredEntry*>> ordered;
  ordered.reserve(store.entries().size());
  for (const auto& [key, entry] : store.entries()) {
    ordered.emplace_back(key, &entry);
  }
  std::sort(ordered.begin(), ordered.end());

  struct VecOffsets {
    uint64_t terms_off = 0, weights_off = 0;
    uint32_t len = 0;
    double norm = 0.0;
  };
  struct SpecOffsets {
    uint64_t query_off = 0;
    uint32_t query_len = 0, vec_count = 0;
    uint64_t vec_desc_index = 0;
    double probability = 0.0;
  };
  struct PlanOffsets {
    uint32_t num_candidates_requested = 0, n = 0, m = 0;
    double threshold_c = 0.0;
    uint64_t docs_off = 0, relevance_off = 0, probability_off = 0,
             spec_order_off = 0, utilities_off = 0, weighted_off = 0;
  };
  struct EntryOffsets {
    uint64_t key_off = 0;
    uint32_t key_len = 0, spec_count = 0;
    uint64_t query_off = 0;
    uint32_t query_len = 0, has_plan = 0;
    uint64_t spec_desc_index = 0, prob_col_off = 0, plan_desc_index = 0;
  };

  std::vector<VecOffsets> vecs;
  std::vector<SpecOffsets> specs;
  std::vector<PlanOffsets> plans;
  std::vector<EntryOffsets> entry_offsets;
  entry_offsets.reserve(ordered.size());

  Out out;
  out.buffer().append(kHeaderSize, '\0');  // header backfilled last

  // --- string pool (unaligned) --------------------------------------
  Directory dir;
  dir.string_pool_off = out.Tell();
  for (const auto& [key, entry] : ordered) {
    EntryOffsets eo;
    eo.key_off = out.Tell();
    eo.key_len = static_cast<uint32_t>(key.size());
    out.Bytes(key);
    eo.query_off = out.Tell();
    eo.query_len = static_cast<uint32_t>(entry->query.size());
    out.Bytes(entry->query);
    eo.spec_count = static_cast<uint32_t>(entry->specializations.size());
    eo.spec_desc_index = specs.size();
    for (const StoredSpecialization& sp : entry->specializations) {
      SpecOffsets so;
      so.query_off = out.Tell();
      so.query_len = static_cast<uint32_t>(sp.query.size());
      out.Bytes(sp.query);
      so.probability = sp.probability;
      so.vec_count = static_cast<uint32_t>(sp.surrogates.size());
      specs.push_back(so);
    }
    entry_offsets.push_back(eo);
  }
  dir.string_pool_len = out.Tell() - dir.string_pool_off;

  // --- aligned columns ----------------------------------------------
  // One pass per entry, in the same key order: probability column,
  // surrogate SoA columns, then the plan blocks.
  for (size_t e = 0; e < ordered.size(); ++e) {
    const StoredEntry* entry = ordered[e].second;
    EntryOffsets& eo = entry_offsets[e];

    out.Align(kAlignment);
    eo.prob_col_off = out.Tell();
    for (const StoredSpecialization& sp : entry->specializations) {
      out.F64(sp.probability);
    }

    for (size_t s = 0; s < entry->specializations.size(); ++s) {
      const StoredSpecialization& sp = entry->specializations[s];
      SpecOffsets& so = specs[eo.spec_desc_index + s];
      so.vec_desc_index = vecs.size();
      for (const text::TermVector& v : sp.surrogates) {
        VecOffsets vo;
        vo.len = static_cast<uint32_t>(v.entries().size());
        vo.norm = v.norm();
        out.Align(kAlignment);
        vo.terms_off = out.Tell();
        for (const auto& [term, weight] : v.entries()) {
          (void)weight;
          out.U32(term);
        }
        out.Align(kAlignment);
        vo.weights_off = out.Tell();
        for (const auto& [term, weight] : v.entries()) {
          (void)term;
          out.F64(weight);
        }
        vecs.push_back(vo);
      }
    }

    const QueryPlan& plan = entry->plan;
    if (!plan.empty()) {
      eo.has_plan = 1;
      eo.plan_desc_index = plans.size();
      PlanOffsets po;
      po.num_candidates_requested = plan.num_candidates_requested;
      po.threshold_c = plan.threshold_c;
      po.n = static_cast<uint32_t>(plan.num_candidates());
      po.m = static_cast<uint32_t>(plan.num_specializations());
      out.Align(kAlignment);
      po.docs_off = out.Tell();
      out.U32Array(plan.docs.data(), plan.docs.size());
      out.Align(kAlignment);
      po.relevance_off = out.Tell();
      out.F64Array(plan.relevance.data(), plan.relevance.size());
      out.Align(kAlignment);
      po.probability_off = out.Tell();
      out.F64Array(plan.probability.data(), plan.probability.size());
      out.Align(kAlignment);
      po.spec_order_off = out.Tell();
      out.U32Array(plan.spec_order.data(), plan.spec_order.size());
      out.Align(kAlignment);
      po.utilities_off = out.Tell();
      out.F64Array(plan.utilities.data(), plan.utilities.size());
      out.Align(kAlignment);
      po.weighted_off = out.Tell();
      out.F64Array(plan.weighted.data(), plan.weighted.size());
      plans.push_back(po);
    }
  }

  // --- descriptor tables --------------------------------------------
  out.Align(kAlignment);
  dir.vec_desc_off = out.Tell();
  for (const VecOffsets& vo : vecs) {
    out.U64(vo.terms_off);
    out.U64(vo.weights_off);
    out.U32(vo.len);
    out.U32(0);
    out.F64(vo.norm);
  }
  out.Align(kAlignment);
  dir.spec_desc_off = out.Tell();
  for (const SpecOffsets& so : specs) {
    out.U64(so.query_off);
    out.U32(so.query_len);
    out.U32(so.vec_count);
    out.U64(so.vec_desc_index);
    out.F64(so.probability);
  }
  out.Align(kAlignment);
  dir.entry_desc_off = out.Tell();
  for (const EntryOffsets& eo : entry_offsets) {
    out.U64(eo.key_off);
    out.U32(eo.key_len);
    out.U32(eo.spec_count);
    out.U64(eo.query_off);
    out.U32(eo.query_len);
    out.U32(eo.has_plan);
    out.U64(eo.spec_desc_index);
    out.U64(eo.prob_col_off);
    out.U64(eo.plan_desc_index);
    out.U64(0);  // reserved
  }
  out.Align(kAlignment);
  dir.plan_desc_off = out.Tell();
  for (const PlanOffsets& po : plans) {
    out.U32(po.num_candidates_requested);
    out.U32(po.n);
    out.U32(po.m);
    out.U32(0);
    out.F64(po.threshold_c);
    out.U64(po.docs_off);
    out.U64(po.relevance_off);
    out.U64(po.probability_off);
    out.U64(po.spec_order_off);
    out.U64(po.utilities_off);
    out.U64(po.weighted_off);
    out.U64(0);  // reserved
  }
  dir.plan_count = plans.size();
  dir.total_specs = specs.size();
  dir.total_vecs = vecs.size();

  out.Align(sizeof(uint64_t));
  const uint64_t directory_offset = out.Tell();
  out.U64(dir.entry_desc_off);
  out.U64(dir.spec_desc_off);
  out.U64(dir.vec_desc_off);
  out.U64(dir.plan_desc_off);
  out.U64(dir.plan_count);
  out.U64(dir.total_specs);
  out.U64(dir.total_vecs);
  out.U64(dir.string_pool_off);
  out.U64(dir.string_pool_len);

  // --- header (backfilled) ------------------------------------------
  std::string& buf = out.buffer();
  const uint64_t file_size = buf.size();
  char header[kHeaderSize];
  std::memset(header, 0, sizeof(header));
  size_t pos = 0;
  auto put = [&](const void* p, size_t n) {
    std::memcpy(header + pos, p, n);
    pos += n;
  };
  const uint32_t format_version = kV4FormatVersion;
  const uint32_t endian_tag = kEndianTag;
  const uint32_t alignment = kAlignment;
  const uint64_t store_version = store.version();
  const uint64_t entry_count = entry_offsets.size();
  put(kV4Magic, sizeof(kV4Magic));
  put(&format_version, sizeof(format_version));
  put(&endian_tag, sizeof(endian_tag));
  put(&alignment, sizeof(alignment));
  put(&store_version, sizeof(store_version));
  put(&entry_count, sizeof(entry_count));
  put(&directory_offset, sizeof(directory_offset));
  put(&file_size, sizeof(file_size));
  const uint64_t body_checksum =
      util::Fnv1a64(buf.data() + kHeaderSize, buf.size() - kHeaderSize);
  put(&body_checksum, sizeof(body_checksum));
  const uint64_t header_checksum = util::Fnv1a64(header, pos);
  put(&header_checksum, sizeof(header_checksum));
  std::memcpy(&buf[0], header, sizeof(header));
  return std::move(buf);
}

/// Copies a mapped span into an owned TermVector. FromEntries on the
/// already-sorted unique input reproduces the exact entries and
/// recomputes the exact norm bits the builder stored, so copies are
/// StoredEntriesEqual to the originals.
std::vector<text::TermVector> ToTermVectors(
    const std::vector<text::TermVectorSpan>& spans) {
  std::vector<text::TermVector> out;
  out.reserve(spans.size());
  for (const text::TermVectorSpan& span : spans) {
    std::vector<text::TermVector::Entry> entries;
    entries.reserve(span.size);
    for (uint32_t t = 0; t < span.size; ++t) {
      entries.emplace_back(span.terms[t], span.weights[t]);
    }
    out.push_back(text::TermVector::FromEntries(std::move(entries)));
  }
  return out;
}

}  // namespace

util::Status MappedStoreFile::WriteV4(const DiversificationStore& store,
                                      const std::string& path) {
  const std::string bytes = EncodeV4(store);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return util::Status::IoError("cannot open for write: " + path);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) return util::Status::IoError("write failed: " + path);
  return util::Status::Ok();
}

util::Result<std::shared_ptr<const MappedStoreFile>>
MappedStoreFile::FromStore(const DiversificationStore& store) {
  const std::string bytes = EncodeV4(store);
  // Anonymous mappings are page-aligned, so the 32-byte column grid of
  // the encoding is absolute alignment here too, exactly as in a file.
  void* base = ::mmap(nullptr, bytes.size(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    return util::Status::IoError(std::string("anonymous mmap failed: ") +
                                 std::strerror(errno));
  }
  std::memcpy(base, bytes.data(), bytes.size());
  std::shared_ptr<MappedStoreFile> image(new MappedStoreFile());
  image->data_ = static_cast<const char*>(base);
  image->size_ = bytes.size();
  // Read-only from here on, like a mapped file: a stray write faults
  // instead of corrupting what every snapshot and span reads.
  if (::mprotect(base, bytes.size(), PROT_READ) != 0) {
    return util::Status::IoError(std::string("mprotect failed: ") +
                                 std::strerror(errno));  // dtor unmaps
  }
  util::Status status = image->BuildIndex();
  if (!status.ok()) return status;
  return std::shared_ptr<const MappedStoreFile>(std::move(image));
}

util::Result<std::shared_ptr<const MappedStoreFile>> MappedStoreFile::Map(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return util::Status::IoError("cannot open for map: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::IoError("fstat failed: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderSize + kDirectorySize) {
    ::close(fd);
    return Corrupt("file too short: " + path);
  }
  // MAP_SHARED, read-only: every process mapping the same store.bin
  // shares one set of physical pages through the OS page cache, so an
  // N-shard fleet on one host pays for the file once, not N times.
  // (The mapping is PROT_READ, so "shared" never means "writable".)
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    ::close(fd);
    return util::Status::IoError("mmap failed: " + path);
  }

  std::shared_ptr<MappedStoreFile> file(new MappedStoreFile());
  file->data_ = static_cast<const char*>(base);
  file->size_ = size;
  file->fd_ = fd;
  util::Status status = file->BuildIndex();
  if (!status.ok()) return status;  // dtor unmaps + closes
  return std::shared_ptr<const MappedStoreFile>(std::move(file));
}

size_t MappedStoreFile::MissingPlanCount(size_t num_candidates,
                                         double threshold_c) const {
  size_t missing = 0;
  for (const MappedEntry& entry : entries_) {
    if (!entry.has_plan ||
        !entry.plan.CompatibleWith(num_candidates, threshold_c)) {
      ++missing;
    }
  }
  return missing;
}

bool ParseMapWarmup(std::string_view text, MapWarmup* out) {
  if (text == "none") {
    *out = MapWarmup::kNone;
  } else if (text == "madvise") {
    *out = MapWarmup::kMadvise;
  } else if (text == "mlock") {
    *out = MapWarmup::kMlock;
  } else {
    return false;
  }
  return true;
}

MapWarmupOutcome MappedStoreFile::Warm(MapWarmup requested) const {
  MapWarmupOutcome out;
  if (requested == MapWarmup::kNone || data_ == nullptr) return out;
  void* base = const_cast<char*>(data_);
  if (requested == MapWarmup::kMlock) {
    if (::mlock(base, size_) == 0) {
      out.applied = MapWarmup::kMlock;
      return out;
    }
    // RLIMIT_MEMLOCK (ENOMEM) or missing CAP_IPC_LOCK (EPERM): degrade
    // to the async readahead hint rather than failing startup.
    out.fell_back = true;
    out.detail = std::strerror(errno);
  }
  if (::madvise(base, size_, MADV_WILLNEED) == 0) {
    out.applied = MapWarmup::kMadvise;
  } else if (!out.fell_back) {
    out.fell_back = true;
    out.detail = std::strerror(errno);
  }
  return out;
}

MappedStoreFile::~MappedStoreFile() {
  // RCU reclamation point: the last shared_ptr (snapshot, shard view,
  // or a request still holding spans) releases the pages here.
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(static_cast<const char*>(data_)), size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

util::Status MappedStoreFile::BuildIndex() {
  In in(data_, size_);

  // --- header --------------------------------------------------------
  if (std::memcmp(data_, kV4Magic, sizeof(kV4Magic)) != 0) {
    return Corrupt("bad magic");
  }
  uint32_t format_version = 0, endian_tag = 0, alignment = 0;
  uint64_t store_version = 0, entry_count = 0, directory_offset = 0,
           file_size = 0, body_checksum = 0, header_checksum = 0;
  in.U32At(4, &format_version);
  in.U32At(8, &endian_tag);
  in.U32At(12, &alignment);
  in.U64At(16, &store_version);
  in.U64At(24, &entry_count);
  in.U64At(32, &directory_offset);
  in.U64At(40, &file_size);
  in.U64At(48, &body_checksum);
  in.U64At(56, &header_checksum);
  if (format_version != kV4FormatVersion) {
    return Corrupt("unsupported format version");
  }
  if (endian_tag != kEndianTag) return Corrupt("endianness mismatch");
  if (alignment != kAlignment) return Corrupt("unexpected alignment");
  if (file_size != size_) return Corrupt("file size mismatch (truncated?)");
  if (util::Fnv1a64(data_, 56) != header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  if (util::Fnv1a64(data_ + kHeaderSize, size_ - kHeaderSize) !=
      body_checksum) {
    return Corrupt("body checksum mismatch");
  }

  // --- directory -----------------------------------------------------
  if (directory_offset < kHeaderSize ||
      !in.InRange(directory_offset, kDirectorySize)) {
    return Corrupt("directory out of range");
  }
  Directory dir;
  in.U64At(directory_offset + 0, &dir.entry_desc_off);
  in.U64At(directory_offset + 8, &dir.spec_desc_off);
  in.U64At(directory_offset + 16, &dir.vec_desc_off);
  in.U64At(directory_offset + 24, &dir.plan_desc_off);
  in.U64At(directory_offset + 32, &dir.plan_count);
  in.U64At(directory_offset + 40, &dir.total_specs);
  in.U64At(directory_offset + 48, &dir.total_vecs);
  in.U64At(directory_offset + 56, &dir.string_pool_off);
  in.U64At(directory_offset + 64, &dir.string_pool_len);

  auto table_ok = [&](uint64_t off, uint64_t count, size_t desc_size) {
    return off % kAlignment == 0 && count <= size_ / desc_size &&
           in.InRange(off, count * desc_size);
  };
  if (!table_ok(dir.entry_desc_off, entry_count, kEntryDescSize)) {
    return Corrupt("entry descriptor table out of range");
  }
  if (!table_ok(dir.spec_desc_off, dir.total_specs, kSpecDescSize)) {
    return Corrupt("spec descriptor table out of range");
  }
  if (!table_ok(dir.vec_desc_off, dir.total_vecs, kVecDescSize)) {
    return Corrupt("vec descriptor table out of range");
  }
  if (!table_ok(dir.plan_desc_off, dir.plan_count, kPlanDescSize)) {
    return Corrupt("plan descriptor table out of range");
  }
  if (!in.InRange(dir.string_pool_off, dir.string_pool_len)) {
    return Corrupt("string pool out of range");
  }

  store_version_ = store_version;
  entries_.clear();
  entries_.reserve(entry_count);
  index_.clear();
  index_.reserve(entry_count);

  std::string_view prev_key;
  for (uint64_t e = 0; e < entry_count; ++e) {
    const uint64_t d = dir.entry_desc_off + e * kEntryDescSize;
    uint64_t key_off = 0, query_off = 0, spec_desc_index = 0,
             prob_col_off = 0, plan_desc_index = 0;
    uint32_t key_len = 0, spec_count = 0, query_len = 0, has_plan = 0;
    in.U64At(d + 0, &key_off);
    in.U32At(d + 8, &key_len);
    in.U32At(d + 12, &spec_count);
    in.U64At(d + 16, &query_off);
    in.U32At(d + 24, &query_len);
    in.U32At(d + 28, &has_plan);
    in.U64At(d + 32, &spec_desc_index);
    in.U64At(d + 40, &prob_col_off);
    in.U64At(d + 48, &plan_desc_index);

    MappedEntry entry;
    if (!in.StrAt(key_off, key_len, &entry.key) ||
        !in.StrAt(query_off, query_len, &entry.query)) {
      return Corrupt("entry strings out of range");
    }
    // The lookup key must be the reader's own normalization of the
    // stored query — otherwise Find would silently miss.
    if (entry.key != util::NormalizeQueryText(entry.query)) {
      return Corrupt("entry key is not the normalized query");
    }
    if (e > 0 && !(prev_key < entry.key)) {
      return Corrupt("entry descriptors not sorted by key");
    }
    prev_key = entry.key;
    if (spec_count < 2) return Corrupt("entry with < 2 specializations");
    if (spec_desc_index > dir.total_specs ||
        spec_count > dir.total_specs - spec_desc_index) {
      return Corrupt("spec descriptor range out of table");
    }
    if (!Column(in, prob_col_off, spec_count, &entry.probability_column)) {
      return Corrupt("probability column out of range or misaligned");
    }
    // Serving casts floor(k·P) to an integer quota and keys heaps on
    // P-weighted sums: a NaN, infinite or out-of-range P is rejected
    // here rather than met there.
    for (uint32_t s = 0; s < spec_count; ++s) {
      const double p = entry.probability_column[s];
      if (!(p >= 0.0 && p <= 1.0)) {
        return Corrupt("probability column holds a value outside [0, 1]");
      }
    }

    entry.specializations.reserve(spec_count);
    for (uint32_t s = 0; s < spec_count; ++s) {
      const uint64_t sd = dir.spec_desc_off +
                          (spec_desc_index + s) * kSpecDescSize;
      uint64_t sp_query_off = 0, vec_desc_index = 0;
      uint32_t sp_query_len = 0, vec_count = 0;
      MappedSpecialization spec;
      in.U64At(sd + 0, &sp_query_off);
      in.U32At(sd + 8, &sp_query_len);
      in.U32At(sd + 12, &vec_count);
      in.U64At(sd + 16, &vec_desc_index);
      in.F64At(sd + 24, &spec.probability);
      if (!in.StrAt(sp_query_off, sp_query_len, &spec.query)) {
        return Corrupt("spec query out of range");
      }
      // The AoS probability and the column must carry the same bits —
      // serving reads whichever is closer at hand.
      if (std::memcmp(&spec.probability, &entry.probability_column[s],
                      sizeof(double)) != 0) {
        return Corrupt("spec probability disagrees with column");
      }
      if (vec_desc_index > dir.total_vecs ||
          vec_count > dir.total_vecs - vec_desc_index) {
        return Corrupt("vec descriptor range out of table");
      }
      spec.surrogates.reserve(vec_count);
      for (uint32_t v = 0; v < vec_count; ++v) {
        const uint64_t vd =
            dir.vec_desc_off + (vec_desc_index + v) * kVecDescSize;
        uint64_t terms_off = 0, weights_off = 0;
        uint32_t len = 0;
        text::TermVectorSpan span;
        in.U64At(vd + 0, &terms_off);
        in.U64At(vd + 8, &weights_off);
        in.U32At(vd + 16, &len);
        in.F64At(vd + 24, &span.norm);
        if (!Column(in, terms_off, len, &span.terms) ||
            !Column(in, weights_off, len, &span.weights)) {
          return Corrupt("surrogate columns out of range or misaligned");
        }
        span.size = len;
        if (!AllFinite(span.weights, len)) {
          return Corrupt("surrogate weight column holds a non-finite value");
        }
        if (!std::isfinite(span.norm)) {
          return Corrupt("surrogate norm is not finite");
        }
        // Sorted unique term ids are the dot kernels' precondition;
        // enforce it here, at the only gate between file bytes and the
        // linear-merge pointer walk.
        for (uint32_t t = 1; t < len; ++t) {
          if (span.terms[t - 1] >= span.terms[t]) {
            return Corrupt("surrogate terms not strictly ascending");
          }
        }
        spec.surrogates.push_back(span);
      }
      entry.specializations.push_back(std::move(spec));
    }

    if (has_plan > 1) return Corrupt("bad plan flag");
    if (has_plan == 1) {
      if (plan_desc_index >= dir.plan_count) {
        return Corrupt("plan descriptor index out of table");
      }
      const uint64_t pd =
          dir.plan_desc_off + plan_desc_index * kPlanDescSize;
      MappedPlan& plan = entry.plan;
      uint64_t docs_off = 0, relevance_off = 0, probability_off = 0,
               spec_order_off = 0, utilities_off = 0, weighted_off = 0;
      in.U32At(pd + 0, &plan.num_candidates_requested);
      in.U32At(pd + 4, &plan.num_candidates);
      in.U32At(pd + 8, &plan.num_specializations);
      in.F64At(pd + 16, &plan.threshold_c);
      in.U64At(pd + 24, &docs_off);
      in.U64At(pd + 32, &relevance_off);
      in.U64At(pd + 40, &probability_off);
      in.U64At(pd + 48, &spec_order_off);
      in.U64At(pd + 56, &utilities_off);
      in.U64At(pd + 64, &weighted_off);
      const uint64_t n = plan.num_candidates;
      const uint64_t m = plan.num_specializations;
      if (n == 0 || m != spec_count) {
        return Corrupt("plan shape disagrees with entry");
      }
      if (n > size_ / sizeof(double) / m) {
        return Corrupt("plan utility block overflows file");
      }
      if (!Column(in, docs_off, n, &plan.docs) ||
          !Column(in, relevance_off, n, &plan.relevance) ||
          !Column(in, probability_off, m, &plan.probability) ||
          !Column(in, spec_order_off, m, &plan.spec_order) ||
          !Column(in, utilities_off, n * m, &plan.utilities) ||
          !Column(in, weighted_off, n, &plan.weighted)) {
        return Corrupt("plan columns out of range or misaligned");
      }
      // Relevance, utilities and their weighted sums feed the heap keys,
      // which a NaN would leave without a strict weak ordering.
      if (!AllFinite(plan.relevance, n)) {
        return Corrupt("plan relevance column holds a non-finite value");
      }
      if (!AllFinite(plan.utilities, n * m)) {
        return Corrupt("plan utility block holds a non-finite value");
      }
      if (!AllFinite(plan.weighted, n)) {
        return Corrupt("plan weighted column holds a non-finite value");
      }
      // The PlanMatchesEntry rule, applied once at map time instead of
      // per Put: probabilities must equal the mined distribution, and
      // spec_order must be a permutation of [0, m) — it indexes the
      // probability and utility columns unchecked on the hot path.
      if (std::memcmp(plan.probability, entry.probability_column,
                      m * sizeof(double)) != 0) {
        return Corrupt("plan probabilities disagree with entry");
      }
      std::vector<bool> seen(m, false);
      for (uint64_t j = 0; j < m; ++j) {
        uint32_t o = plan.spec_order[j];
        if (o >= m || seen[o]) {
          return Corrupt("plan spec_order is not a permutation");
        }
        seen[o] = true;
      }
      entry.has_plan = true;
    }
    entries_.push_back(std::move(entry));
  }

  // Index after the vector stops reallocating; keys view the mapped
  // string pool, so this is pointer-only.
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!index_.emplace(entries_[i].key, i).second) {
      return Corrupt("duplicate entry key");
    }
  }
  return util::Status::Ok();
}

DiversificationStore MappedStoreFile::Materialize() const {
  DiversificationStore store;
  for (const MappedEntry& me : entries_) {
    StoredEntry entry;
    entry.query = std::string(me.query);
    entry.specializations.reserve(me.specializations.size());
    for (const MappedSpecialization& ms : me.specializations) {
      StoredSpecialization sp;
      sp.query = std::string(ms.query);
      sp.probability = ms.probability;
      sp.surrogates = ToTermVectors(ms.surrogates);
      entry.specializations.push_back(std::move(sp));
    }
    if (me.has_plan) {
      QueryPlan& plan = entry.plan;
      const MappedPlan& mp = me.plan;
      plan.num_candidates_requested = mp.num_candidates_requested;
      plan.threshold_c = mp.threshold_c;
      plan.docs.assign(mp.docs, mp.docs + mp.num_candidates);
      plan.relevance.assign(mp.relevance,
                            mp.relevance + mp.num_candidates);
      plan.probability.assign(mp.probability,
                              mp.probability + mp.num_specializations);
      plan.spec_order.assign(mp.spec_order,
                             mp.spec_order + mp.num_specializations);
      plan.utilities.assign(
          mp.utilities, mp.utilities + static_cast<size_t>(
                                           mp.num_candidates) *
                                           mp.num_specializations);
      plan.weighted.assign(mp.weighted, mp.weighted + mp.num_candidates);
    }
    store.Put(std::move(entry)).IgnoreError();
  }
  store.set_version(store_version_);
  return store;
}

std::vector<core::SpecializationProfile> EntryRef::ToProfiles() const {
  if (heap_ != nullptr) {
    return DiversificationStore::ToProfiles(*heap_);
  }
  std::vector<core::SpecializationProfile> profiles;
  profiles.reserve(mapped_->specializations.size());
  for (const MappedSpecialization& ms : mapped_->specializations) {
    core::SpecializationProfile p;
    p.query = std::string(ms.query);
    p.probability = ms.probability;
    p.results = ToTermVectors(ms.surrogates);
    profiles.push_back(std::move(p));
  }
  return profiles;
}

}  // namespace store
}  // namespace optselect
