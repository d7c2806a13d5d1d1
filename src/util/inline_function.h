#ifndef CCUBE_UTIL_INLINE_FUNCTION_H_
#define CCUBE_UTIL_INLINE_FUNCTION_H_

/**
 * @file
 * Small-buffer type-erased callable — the allocation-free std::function
 * replacement used on the discrete-event hot path.
 *
 * A `InlineFunction<R(Args...), Capacity>` stores the callable in-place
 * when it fits `Capacity` bytes and is nothrow-move-constructible;
 * larger (or potentially-throwing) callables fall back to a single heap
 * allocation. Unlike std::function it is move-only, so captured state
 * is never copied: scheduling an event, relocating it inside the event
 * pool, and invoking it are all moves.
 *
 * The per-object overhead is one operations-table pointer (invoke /
 * relocate / destroy), and the buffer is pointer-aligned, so the object
 * is Capacity plus one pointer for a Capacity that is a multiple of 8
 * (an over-aligned callable takes the heap path); an empty function
 * has a null table, making `bool(fn)` and destruction branch-cheap.
 * Relocation is noexcept by construction, which is what lets the event
 * pool keep callables in a plain std::vector slab.
 */

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ccube {
namespace util {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction; // undefined; only the R(Args...) partial below

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    /** Bytes of in-place storage; larger callables heap-allocate. */
    static constexpr std::size_t kCapacity = Capacity;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  !std::is_same_v<D, std::nullptr_t> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    InlineFunction(F&& fn)
    {
        if constexpr (kFitsInline<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
            ops_ = &kInlineOps<D>;
        } else {
            ::new (static_cast<void*>(storage_))
                D*(new D(std::forward<F>(fn)));
            ops_ = &kHeapOps<D>;
        }
    }

    InlineFunction(InlineFunction&& other) noexcept
    {
        moveFrom(other);
    }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    /** Rebinds to a new callable (used by call sites that wrap an
     *  existing callback, e.g. the multi-hop flow-span decorator). */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  !std::is_same_v<D, std::nullptr_t> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    InlineFunction&
    operator=(F&& fn)
    {
        InlineFunction tmp(std::forward<F>(fn));
        destroy();
        moveFrom(tmp);
        return *this;
    }

    InlineFunction&
    operator=(std::nullptr_t) noexcept
    {
        destroy();
        ops_ = nullptr;
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** True when the held callable lives in the inline buffer (empty
     *  functions count as inline); exposed for tests and benchmarks. */
    bool
    isInline() const noexcept
    {
        return ops_ == nullptr || !ops_->heap;
    }

  private:
    struct Ops {
        R (*invoke)(void* storage, Args&&... args);
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* storage) noexcept;
        bool heap;
    };

    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= Capacity && alignof(D) <= alignof(void*) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    static D*
    inlinePtr(void* storage) noexcept
    {
        return std::launder(reinterpret_cast<D*>(storage));
    }

    template <typename D>
    static D*&
    heapPtr(void* storage) noexcept
    {
        return *std::launder(reinterpret_cast<D**>(storage));
    }

    template <typename D>
    static constexpr Ops kInlineOps = {
        /*invoke=*/
        [](void* storage, Args&&... args) -> R {
            return (*inlinePtr<D>(storage))(
                std::forward<Args>(args)...);
        },
        /*relocate=*/
        [](void* dst, void* src) noexcept {
            D* from = inlinePtr<D>(src);
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        /*destroy=*/
        [](void* storage) noexcept { inlinePtr<D>(storage)->~D(); },
        /*heap=*/false,
    };

    template <typename D>
    static constexpr Ops kHeapOps = {
        /*invoke=*/
        [](void* storage, Args&&... args) -> R {
            return (*heapPtr<D>(storage))(std::forward<Args>(args)...);
        },
        /*relocate=*/
        [](void* dst, void* src) noexcept {
            ::new (dst) D*(heapPtr<D>(src));
        },
        /*destroy=*/
        [](void* storage) noexcept { delete heapPtr<D>(storage); },
        /*heap=*/true,
    };

    void
    destroy() noexcept
    {
        if (ops_)
            ops_->destroy(storage_);
    }

    /** Leaves @p other empty; assumes *this holds no callable. */
    void
    moveFrom(InlineFunction& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    alignas(void*) unsigned char storage_[Capacity];
    const Ops* ops_ = nullptr;
};

} // namespace util
} // namespace ccube

#endif // CCUBE_UTIL_INLINE_FUNCTION_H_
