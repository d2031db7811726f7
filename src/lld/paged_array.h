// Fixed-page storage for LLD's in-memory tables: the block map's entries,
// free-bid stack and read counts, and the list table's entries and free-lid
// stack.
//
// A std::vector doubles its capacity as it grows, so up to half of a table is
// slots it reserved and never filled, and every entry moves at each doubling.
// PagedArray keeps its elements in 4-KB pages, allocated as the array grows
// and never moved, so a table costs its entries rounded up to one page plus a
// page index of one pointer per page. An array of one page keeps that page
// right-sized, doubling up to 4 KB, and needs no index on the heap: the list
// table of a single-list volume costs its two entries and nothing else. Only
// that small page ever moves; once an array has reached a full page, a
// reference to an element stays valid until clear().

#ifndef SRC_LLD_PAGED_ARRAY_H_
#define SRC_LLD_PAGED_ARRAY_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ld {

template <typename T>
class PagedArray {
 public:
  static constexpr size_t kPageBytes = 4096;
  static constexpr size_t kPerPage = kPageBytes / sizeof(T);
  static_assert(std::has_single_bit(kPerPage) && kPerPage * sizeof(T) == kPageBytes);

  PagedArray() = default;
  explicit PagedArray(size_t n) { resize(n); }
  // A one-page array's index points into the array itself.
  PagedArray(const PagedArray&) = delete;
  PagedArray& operator=(const PagedArray&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) {
    assert(i < size_);
    return index_[i / kPerPage][i % kPerPage];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return index_[i / kPerPage][i % kPerPage];
  }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity()) {
      Grow(size_ + 1);
    }
    (*this)[size_++] = value;
  }
  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  // New elements are value-initialized (T{}); shrinking keeps the pages.
  void resize(size_t n) {
    if (n > capacity()) {
      Grow(n);
    }
    const size_t old = size_;
    size_ = n;
    for (size_t i = old; i < n; ++i) {
      (*this)[i] = T{};
    }
  }

  // Drops every element and frees every page and the index.
  void clear() {
    first_.reset();
    first_capacity_ = 0;
    pages_ = std::vector<PagePtr>();
    index_ = &first_;
    size_ = 0;
  }

  // Pages allocated, a small first page included.
  size_t pages() const { return (first_ != nullptr ? 1 : 0) + pages_.size(); }
  // Bytes of the page index on the heap (one pointer per slot it reserved).
  uint64_t IndexBytes() const { return pages_.capacity() * sizeof(PagePtr); }
  // Bytes of the pages plus the page index.
  uint64_t MemoryBytes() const {
    return first_capacity_ * sizeof(T) + pages_.size() * kPageBytes + IndexBytes();
  }

 private:
  using PagePtr = std::unique_ptr<T[]>;

  size_t capacity() const { return first_capacity_ + pages_.size() * kPerPage; }

  // Makes room for n elements. Page 0 doubles up to a whole page; past one
  // page it joins the heap index unmoved, and whole pages follow.
  void Grow(size_t n) {
    if (pages_.empty()) {
      const size_t cap = std::min(kPerPage, std::bit_ceil(n));
      if (cap > first_capacity_) {
        PagePtr page = std::make_unique<T[]>(cap);
        std::copy_n(first_.get(), size_, page.get());
        first_ = std::move(page);
        first_capacity_ = cap;
      }
      if (n <= kPerPage) {
        return;
      }
      pages_.push_back(std::move(first_));
      first_capacity_ = 0;
    }
    while (pages_.size() * kPerPage < n) {
      pages_.push_back(std::make_unique<T[]>(kPerPage));
    }
    index_ = pages_.data();
  }

  // The only page while there is one, first_capacity_ elements; its own slot
  // is then the index.
  PagePtr first_;
  size_t first_capacity_ = 0;
  // Every page once there are two or more: the page index.
  std::vector<PagePtr> pages_;
  PagePtr* index_ = &first_;  // &first_ or pages_.data().
  size_t size_ = 0;
};

}  // namespace ld

#endif  // SRC_LLD_PAGED_ARRAY_H_
