/**
 * @file
 * Device buffers.
 *
 * A Buffer<T> owns real host-side storage (kernels really compute) and
 * carries a virtual device address range so the cache and coalescing
 * models see realistic addresses.  Buffers know their memory space;
 * data-placement variants differ only in the space of their buffers.
 *
 * The DySel runtime clones buffers to build sandboxes (hybrid
 * profiling) and private output spaces (swap profiling); a clone gets a
 * fresh address range, like a separate allocation would.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "support/logging.hh"

#include "mem_space.hh"

namespace dysel {
namespace kdp {

/**
 * Type-erased base so the runtime can pass buffers through kernel
 * argument lists and clone/swap them without knowing T.
 */
class BufferBase
{
  public:
    virtual ~BufferBase() = default;

    /** Virtual device base address of this allocation. */
    std::uint64_t baseAddr() const { return base; }

    /** Element size in bytes. */
    std::uint32_t elemSize() const { return elemBytes; }

    /** Number of elements. */
    std::uint64_t size() const { return count; }

    /** Total bytes of the allocation. */
    std::uint64_t sizeBytes() const { return count * elemBytes; }

    /** Memory space the buffer lives in. */
    MemSpace space() const { return memSpace; }

    /** Move the buffer to a different memory space (re-placement). */
    void setSpace(MemSpace s) { memSpace = s; }

    /** Debug name. */
    const std::string &name() const { return label; }

    /**
     * Trailing elements of the allocation reserved as a guard
     * redzone (clonePadded() sets this); kernels own only the first
     * size() - redzone() elements.  0 for ordinary buffers.
     */
    std::uint64_t redzone() const { return redzoneCount; }

    /** Elements that carry data (size() minus the redzone). */
    std::uint64_t dataElems() const { return size() - redzoneCount; }

    /** Deep copy with a fresh address range. */
    virtual std::unique_ptr<BufferBase> clone() const = 0;

    /**
     * Deep copy extended by @p extra trailing redzone elements (a
     * fresh address range, like clone()).  The redzone contents are
     * whatever the guard paints them with; kernels indexing past
     * dataElems() land in it instead of out of the allocation.
     */
    virtual std::unique_ptr<BufferBase>
    clonePadded(std::uint64_t extra) const = 0;

    /** Copy contents from @p other (sizes and types must match). */
    virtual void copyFrom(const BufferBase &other) = 0;

    /** Raw byte view of the storage (guard checks, fault injection). */
    virtual void *rawData() = 0;
    const void *rawData() const
    {
        return const_cast<BufferBase *>(this)->rawData();
    }

    /**
     * typeid of the element type, for checked downcasts.  Stored, not
     * virtual: KernelArgs::buf checks it on every kernel invocation.
     */
    const std::type_info &elemType() const { return *elemTag; }

  protected:
    BufferBase(std::uint64_t n, std::uint32_t elem_bytes,
               const std::type_info &elem_type, MemSpace s,
               std::string name);

    /** Allocate a fresh virtual address range of @p bytes. */
    static std::uint64_t allocAddr(std::uint64_t bytes);

    /** Mark the last @p n elements as redzone (clonePadded). */
    void setRedzone(std::uint64_t n) { redzoneCount = n; }

  private:
    std::uint64_t base;
    std::uint64_t count;
    const std::type_info *elemTag;
    std::uint32_t elemBytes;
    MemSpace memSpace;
    std::string label;
    std::uint64_t redzoneCount = 0;
};

/**
 * Typed device buffer with real storage.
 *
 * @tparam T element type (trivially copyable)
 */
template <typename T>
class Buffer : public BufferBase
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "device buffers hold trivially copyable elements");

  public:
    /** Allocate @p n elements, zero-initialized, in @p s. */
    Buffer(std::uint64_t n, MemSpace s = MemSpace::Global,
           std::string name = "buf")
        : BufferBase(n, sizeof(T), typeid(T), s, std::move(name)), data(n)
    {}

    /** Direct host access (generators, reference checkers). */
    T *host() { return data.data(); }
    const T *host() const { return data.data(); }

    /** Checked element access from host code. */
    T &
    at(std::uint64_t i)
    {
        if (i >= size())
            support::panic("host access out of bounds: %llu >= %llu in %s",
                           (unsigned long long)i,
                           (unsigned long long)size(), name().c_str());
        return data[i];
    }

    const T &
    at(std::uint64_t i) const
    {
        return const_cast<Buffer *>(this)->at(i);
    }

    /** Device address of element @p i. */
    std::uint64_t addrOf(std::uint64_t i) const
    {
        return baseAddr() + i * sizeof(T);
    }

    std::unique_ptr<BufferBase>
    clone() const override
    {
        auto copy = std::make_unique<Buffer<T>>(size(), space(),
                                                name() + ".clone");
        copy->data = data;
        return copy;
    }

    std::unique_ptr<BufferBase>
    clonePadded(std::uint64_t extra) const override
    {
        auto copy = std::make_unique<Buffer<T>>(size() + extra, space(),
                                                name() + ".clone");
        std::copy(data.begin(), data.end(), copy->data.begin());
        copy->setRedzone(extra);
        return copy;
    }

    void
    copyFrom(const BufferBase &other) override
    {
        if (other.elemType() != typeid(T) || other.size() != size())
            support::panic("Buffer::copyFrom type/size mismatch (%s <- %s)",
                           name().c_str(), other.name().c_str());
        data = static_cast<const Buffer<T> &>(other).data;
    }

    void *rawData() override { return data.data(); }

    /** Fill with a constant. */
    void
    fill(const T &v)
    {
        std::fill(data.begin(), data.end(), v);
    }

  private:
    std::vector<T> data;
};

} // namespace kdp
} // namespace dysel
