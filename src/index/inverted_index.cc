#include "index/inverted_index.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>

#include "util/cpus.h"

namespace optselect {
namespace index {
namespace {

size_t VarintBytes(uint32_t value) {
  size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

uint8_t* PutVarint(uint32_t value, uint8_t* out) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

uint32_t GetVarint(const uint8_t** p) {
  uint32_t value = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *(*p)++;
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return value;
  }
}

/// Runs work(worker, chunk) once for every chunk in [0, chunks), each
/// of `workers` slots taking the next chunk as it finishes one, so
/// `worker` names scratch that no other thread uses meanwhile.
template <typename Work>
void ForEachChunk(size_t workers, size_t chunks, const Work& work) {
  std::atomic<size_t> next{0};
  util::ParallelFor(workers, [&](size_t worker) {
    for (size_t c = next++; c < chunks; c = next++) work(worker, c);
  });
}

/// A new[] array of trivially constructible values, left uninitialized:
/// the pages of a large one stay unresident until written, so an upper
/// bound costs address space, not memory. Callers read only what they
/// wrote.
template <typename T>
std::unique_ptr<T[]> Uninitialized(size_t size) {
  return std::unique_ptr<T[]>(new T[size]);
}

/// One chunk's distinct raw tokens, numbered in order of first
/// occurrence and spelled into the chunk's region NUL-terminated
/// (tokens are alphanumeric, so never hold a NUL). Open addressing over
/// a worker's slots and entries, which the calling thread allocated;
/// the table grows in place (a wider mask over the same slots), so a
/// chunk writes only the slots its tokens need, and nothing is
/// allocated per token.
class DistinctTokens {
 public:
  struct Entry {
    size_t offset;  // into the spelled region
    uint32_t length;
    uint32_t hash;
  };
  static constexpr size_t kMinSlots = 1024;

  /// Slots a table needs for chunks of at most `max_tokens` tokens:
  /// load stays at or below 1/2.
  static size_t SlotsFor(size_t max_tokens) {
    size_t slots = kMinSlots;
    while (slots < 2 * max_tokens) slots *= 2;
    return slots;
  }

  DistinctTokens(uint32_t* slots, Entry* entries)
      : slots_(slots), entries_(entries) {}

  /// Starts a chunk that spells its tokens into `spelled`.
  void Begin(char* spelled) {
    spelled_ = spelled;
    size_ = 0;
    spelled_bytes_ = 0;
    std::fill(slots_, slots_ + mask_ + 1, 0u);
  }

  /// The chunk-local number of `token`.
  uint32_t Intern(std::string_view token) {
    const uint32_t hash =
        static_cast<uint32_t>(std::hash<std::string_view>()(token));
    size_t i = hash & mask_;
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.hash == hash && e.length == token.size() &&
          std::memcmp(spelled_ + e.offset, token.data(), e.length) == 0) {
        return slots_[i] - 1;
      }
    }
    entries_[size_] =
        Entry{spelled_bytes_, static_cast<uint32_t>(token.size()), hash};
    std::memcpy(spelled_ + spelled_bytes_, token.data(), token.size());
    spelled_[spelled_bytes_ + token.size()] = '\0';
    spelled_bytes_ += token.size() + 1;
    slots_[i] = static_cast<uint32_t>(++size_);
    if (2 * size_ > mask_ + 1) Grow();
    return static_cast<uint32_t>(size_ - 1);
  }

  size_t size() const { return size_; }

 private:
  void Grow() {
    mask_ = 2 * mask_ + 1;
    std::fill(slots_, slots_ + mask_ + 1, 0u);
    for (size_t e = 0; e < size_; ++e) {
      size_t i = entries_[e].hash & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<uint32_t>(e + 1);
    }
  }

  uint32_t* slots_;    // 0 = empty, else entry index + 1
  Entry* entries_;     // by chunk-local number
  size_t mask_ = kMinSlots - 1;
  char* spelled_ = nullptr;
  size_t size_ = 0;
  size_t spelled_bytes_ = 0;
};

/// One document's direct record from its raw tokens' chunk-local
/// numbers (`title` of them, then `body`) and the chunk's term ids by
/// local number: calls put(value) for each varint in record order — the
/// title's kept-id count, its kept ids, then one value per raw body
/// token — and keep(id) for each kept id.
template <typename Put, typename Keep>
void WalkRecord(const uint32_t* local, uint32_t title, uint32_t body,
                const text::TermId* ids, Put&& put, Keep&& keep) {
  uint32_t title_kept = 0;
  for (uint32_t i = 0; i < title; ++i) {
    title_kept += ids[local[i]] != text::kInvalidTermId;
  }
  put(title_kept);
  for (uint32_t i = 0; i < title; ++i) {
    const text::TermId id = ids[local[i]];
    if (id == text::kInvalidTermId) continue;
    put(id + 1);
    keep(id);
  }
  for (uint32_t i = title; i < title + body; ++i) {
    const text::TermId id = ids[local[i]];
    // A dropped token's kInvalidTermId + 1 wraps to the stored 0.
    put(id + 1);
    if (id != text::kInvalidTermId) keep(id);
  }
}

/// One chunk of consecutive documents and where its build state lives.
struct Chunk {
  DocId begin = 0;  // documents [begin, end)
  DocId end = 0;
  size_t token_begin = 0;    // its raw tokens' local numbers in `tokens`
  size_t spelled_begin = 0;  // its distinct tokens' spelling
  size_t num_distinct = 0;
  size_t id_begin = 0;  // its distinct tokens' term ids in `ids`
  size_t direct_begin = 0;
  size_t direct_size = 0;
  uint64_t kept_tokens = 0;
};

}  // namespace

const std::vector<Posting> InvertedIndex::kEmptyPostings = {};

InvertedIndex InvertedIndex::Build(const corpus::DocumentStore& store,
                                   text::Analyzer* analyzer) {
  InvertedIndex idx;
  const size_t num_docs = store.size();
  idx.doc_lengths_.resize(num_docs, 0);
  idx.direct_offsets_.resize(num_docs + 1, 0);
  const text::Tokenizer& tokenizer = analyzer->tokenizer();

  // The chunks, and the tokenizer's bounds that size every region of
  // pass 1 before any thread starts: a chunk's raw tokens, and its
  // distinct tokens' NUL-terminated spelling (no more than all of its
  // tokens').
  std::vector<Chunk> chunks((num_docs + kBuildChunkDocs - 1) /
                            kBuildChunkDocs);
  size_t token_slots = 0;
  size_t spelled_slots = 0;
  size_t max_chunk_tokens = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    Chunk& chunk = chunks[c];
    chunk.begin = static_cast<DocId>(c * kBuildChunkDocs);
    chunk.end = static_cast<DocId>(
        std::min(num_docs, (c + 1) * kBuildChunkDocs));
    chunk.token_begin = token_slots;
    chunk.spelled_begin = spelled_slots;
    size_t chunk_tokens = 0;
    for (DocId d = chunk.begin; d < chunk.end; ++d) {
      const corpus::Document& doc = store.Get(d);
      chunk_tokens += tokenizer.MaxTokens(doc.title.size()) +
                      tokenizer.MaxTokens(doc.body.size());
      spelled_slots += tokenizer.MaxSpelledBytes(doc.title.size()) +
                       tokenizer.MaxSpelledBytes(doc.body.size());
    }
    token_slots += chunk_tokens;
    max_chunk_tokens = std::max(max_chunk_tokens, chunk_tokens);
  }
  const size_t workers = std::min(util::AvailableCpus(), chunks.size());

  // Pass 1, in parallel: tokenize each chunk once (title then body of
  // each document — field weighting is not part of the paper's setup,
  // so both count as one field) against the chunk's own table of
  // distinct raw tokens.
  std::unique_ptr<uint32_t[]> tokens = Uninitialized<uint32_t>(token_slots);
  std::unique_ptr<char[]> spelled = Uninitialized<char>(spelled_slots);
  std::vector<uint32_t> title_tokens(num_docs);  // raw, per document
  std::vector<uint32_t> body_tokens(num_docs);
  {
    const size_t slots_per_worker = DistinctTokens::SlotsFor(max_chunk_tokens);
    std::unique_ptr<uint32_t[]> slots =
        Uninitialized<uint32_t>(workers * slots_per_worker);
    std::unique_ptr<DistinctTokens::Entry[]> entries =
        Uninitialized<DistinctTokens::Entry>(workers * max_chunk_tokens);
    std::vector<DistinctTokens> tables;
    tables.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      tables.emplace_back(slots.get() + w * slots_per_worker,
                          entries.get() + w * max_chunk_tokens);
    }
    ForEachChunk(workers, chunks.size(), [&](size_t worker, size_t c) {
      Chunk& chunk = chunks[c];
      DistinctTokens& table = tables[worker];
      table.Begin(spelled.get() + chunk.spelled_begin);
      uint32_t* out = tokens.get() + chunk.token_begin;
      auto record = [&](std::string_view token) {
        *out++ = table.Intern(token);
      };
      for (DocId d = chunk.begin; d < chunk.end; ++d) {
        const corpus::Document& doc = store.Get(d);
        const uint32_t* start = out;
        tokenizer.ForEachToken(doc.title, record);
        title_tokens[d] = static_cast<uint32_t>(out - start);
        tokenizer.ForEachToken(doc.body, record);
        body_tokens[d] =
            static_cast<uint32_t>(out - start) - title_tokens[d];
      }
      chunk.num_distinct = table.size();
    });
  }

  // Pass 2, on this thread: intern each chunk's distinct tokens, chunks
  // in id order and each in order of first occurrence. That visits
  // every raw token's first occurrence in the order a one-document-at-
  // a-time build does, so the term ids, the vocabulary and the token
  // memo come out the same.
  size_t num_ids = 0;
  for (Chunk& chunk : chunks) {
    chunk.id_begin = num_ids;
    num_ids += chunk.num_distinct;
  }
  std::vector<text::TermId> ids(num_ids);
  for (const Chunk& chunk : chunks) {
    const char* p = spelled.get() + chunk.spelled_begin;
    for (size_t i = 0; i < chunk.num_distinct; ++i) {
      const std::string_view token(p);
      ids[chunk.id_begin + i] = analyzer->InternToken(token);
      p += token.size() + 1;
    }
  }
  spelled.reset();

  // Pass 3, in parallel: size each chunk's direct records and count
  // document lengths and frequencies (per worker, summed below); then
  // write the records at their final offsets.
  const size_t vocab = analyzer->vocabulary().size();
  std::vector<uint32_t> doc_freq(vocab, 0);  // by TermId
  {
    std::vector<uint32_t> worker_freq(workers * vocab, 0);
    std::vector<DocId> last_doc(workers * vocab, kInvalidDocId);
    ForEachChunk(workers, chunks.size(), [&](size_t worker, size_t c) {
      Chunk& chunk = chunks[c];
      const uint32_t* local = tokens.get() + chunk.token_begin;
      uint32_t* freq = worker_freq.data() + worker * vocab;
      DocId* last = last_doc.data() + worker * vocab;
      for (DocId d = chunk.begin; d < chunk.end; ++d) {
        uint32_t kept = 0;
        WalkRecord(
            local, title_tokens[d], body_tokens[d], ids.data() + chunk.id_begin,
            [&](uint32_t value) { chunk.direct_size += VarintBytes(value); },
            [&](text::TermId id) {
              ++kept;
              if (last[id] != d) {
                last[id] = d;
                ++freq[id];
              }
            });
        local += title_tokens[d] + body_tokens[d];
        idx.doc_lengths_[d] = kept;
        chunk.kept_tokens += kept;
      }
    });
    for (size_t w = 0; w < workers; ++w) {
      for (text::TermId t = 0; t < vocab; ++t) {
        doc_freq[t] += worker_freq[w * vocab + t];
      }
    }
  }
  size_t direct_size = 0;
  for (Chunk& chunk : chunks) {
    chunk.direct_begin = direct_size;
    direct_size += chunk.direct_size;
    idx.total_tokens_ += chunk.kept_tokens;
  }
  idx.direct_.resize(direct_size);
  ForEachChunk(workers, chunks.size(), [&](size_t, size_t c) {
    const Chunk& chunk = chunks[c];
    const uint32_t* local = tokens.get() + chunk.token_begin;
    uint8_t* const direct = idx.direct_.data();
    uint8_t* out = direct + chunk.direct_begin;
    for (DocId d = chunk.begin; d < chunk.end; ++d) {
      WalkRecord(
          local, title_tokens[d], body_tokens[d], ids.data() + chunk.id_begin,
          [&](uint32_t value) { out = PutVarint(value, out); },
          [](text::TermId) {});
      local += title_tokens[d] + body_tokens[d];
      idx.direct_offsets_[d + 1] = static_cast<uint64_t>(out - direct);
    }
  });
  tokens.reset();
  ids = {};
  title_tokens = {};
  body_tokens = {};

  // Pass 4: every posting list at its exact size, filled from the
  // direct index in ascending document order.
  size_t num_terms = vocab;
  while (num_terms > 0 && doc_freq[num_terms - 1] == 0) --num_terms;
  idx.postings_.resize(num_terms);
  idx.collection_freq_.resize(num_terms, 0);
  for (text::TermId term = 0; term < num_terms; ++term) {
    idx.postings_[term].reserve(doc_freq[term]);
  }
  std::vector<uint32_t> tf(num_terms, 0);  // by TermId, zero between docs
  std::vector<text::TermId> distinct;      // one document's, in order
  for (DocId d = 0; d < num_docs; ++d) {
    const uint8_t* p = idx.direct_.data() + idx.direct_offsets_[d];
    const uint8_t* const end = idx.direct_.data() + idx.direct_offsets_[d + 1];
    auto count = [&](text::TermId id) {
      if (tf[id]++ == 0) distinct.push_back(id);
    };
    for (uint32_t n = GetVarint(&p); n > 0; --n) count(GetVarint(&p) - 1);
    while (p < end) {
      const uint32_t value = GetVarint(&p);
      if (value != 0) count(value - 1);
    }
    for (text::TermId t : distinct) {
      idx.postings_[t].push_back(Posting{d, tf[t]});
      idx.collection_freq_[t] += tf[t];
      tf[t] = 0;
    }
    distinct.clear();
  }

  idx.avg_doc_length_ =
      idx.doc_lengths_.empty()
          ? 0.0
          : static_cast<double>(idx.total_tokens_) /
                static_cast<double>(idx.doc_lengths_.size());
  return idx;
}

void InvertedIndex::DocumentTerms(DocId doc, std::vector<text::TermId>* title,
                                  std::vector<text::TermId>* body) const {
  const uint8_t* p = direct_.data() + direct_offsets_[doc];
  const uint8_t* end = direct_.data() + direct_offsets_[doc + 1];
  title->resize(GetVarint(&p));
  for (text::TermId& id : *title) id = GetVarint(&p) - 1;
  body->clear();
  // A stored 0 (a dropped token) decodes to 0 - 1 == kInvalidTermId.
  while (p < end) body->push_back(GetVarint(&p) - 1);
}

const std::vector<Posting>& InvertedIndex::Postings(
    text::TermId term) const {
  if (term >= postings_.size()) return kEmptyPostings;
  return postings_[term];
}

uint32_t InvertedIndex::DocFrequency(text::TermId term) const {
  if (term >= postings_.size()) return 0;
  return static_cast<uint32_t>(postings_[term].size());
}

uint64_t InvertedIndex::CollectionFrequency(text::TermId term) const {
  if (term >= collection_freq_.size()) return 0;
  return collection_freq_[term];
}

}  // namespace index
}  // namespace optselect
