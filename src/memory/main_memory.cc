#include "memory/main_memory.hh"

#include <cstdint>
#include <cstring>
#include <utility>

#include <sys/mman.h>

namespace mtfpu::memory
{

MainMemory::MainMemory(size_t size)
    : words_(size / 8 + (size % 8 != 0)), lo_(words_)
{
    if (words_ == 0)
        return;
    // MAP_NORESERVE + anonymous: no memset and no commit charge up
    // front; a page costs memory only once a write lands in it.
    void *region = words_ > SIZE_MAX / 8
                       ? MAP_FAILED
                       : mmap(nullptr, words_ * 8, PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                              -1, 0);
    if (region == MAP_FAILED)
        fatal(ErrCode::MemRange, "cannot map " + std::to_string(size) +
                                     " bytes of main memory");
    data_ = static_cast<uint64_t *>(region);
}

MainMemory::~MainMemory()
{
    if (data_)
        munmap(data_, words_ * 8);
}

MainMemory::MainMemory(MainMemory &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      words_(std::exchange(other.words_, 0)),
      lo_(std::exchange(other.lo_, 0)), hi_(std::exchange(other.hi_, 0))
{
}

MainMemory &
MainMemory::operator=(MainMemory &&other) noexcept
{
    std::swap(data_, other.data_);
    std::swap(words_, other.words_);
    std::swap(lo_, other.lo_);
    std::swap(hi_, other.hi_);
    return *this;
}

double
MainMemory::readDouble(uint64_t addr) const
{
    const uint64_t v = read64(addr);
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

void
MainMemory::writeDouble(uint64_t addr, double value)
{
    uint64_t v;
    std::memcpy(&v, &value, sizeof(v));
    write64(addr, v);
}

void
MainMemory::clear()
{
    if (lo_ < hi_)
        std::memset(data_ + lo_, 0, (hi_ - lo_) * 8);
    lo_ = words_;
    hi_ = 0;
}

void
MainMemory::saveState(ByteWriter &out) const
{
    out.u64(words_);
    uint64_t nonzero = 0;
    for (uint64_t i = lo_; i < hi_; ++i) {
        if (data_[i] != 0)
            ++nonzero;
    }
    out.u64(nonzero);
    for (uint64_t i = lo_; i < hi_; ++i) {
        if (data_[i] != 0) {
            out.u64(i);
            out.u64(data_[i]);
        }
    }
}

void
MainMemory::restoreState(ByteReader &in)
{
    const uint64_t words = in.u64();
    if (words != words_) {
        fatal(ErrCode::BadSnapshot,
              "MainMemory: snapshot holds " + std::to_string(words * 8) +
                  " bytes, machine has " + std::to_string(words_ * 8));
    }
    clear();
    const uint64_t nonzero = in.u64();
    for (uint64_t i = 0; i < nonzero; ++i) {
        const uint64_t index = in.u64();
        const uint64_t value = in.u64();
        if (index >= words_)
            fatal(ErrCode::BadSnapshot,
                  "MainMemory: snapshot word index out of range");
        write64(index * 8, value);
    }
}

} // namespace mtfpu::memory
