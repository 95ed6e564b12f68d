/**
 * @file
 * Small-buffer-optimized callable for the simulator's hot paths.
 *
 * Every simulated event, mesh delivery and controller callback used
 * to carry a std::function, whose 16-byte inline buffer (libstdc++)
 * holds only trivially copyable captures and so forces a heap
 * allocation for nearly every capture list in the codebase, plus
 * another on each copy. SmallFn<R(Args...), Capacity> stores
 * callables up to Capacity bytes in-place and only falls back to the
 * heap beyond that, so the discrete-event core and the protocol
 * controllers run allocation-free for ordinary callbacks.
 *
 * Semantics: type-erased R(Args...) callable, movable and copyable
 * (copying panics at runtime if the stored callable is not
 * copy-constructible — the mesh needs copies only for duplicated
 * idempotent messages, whose closures are all copyable). Like
 * std::function, a const SmallFn invokes its callable as non-const.
 */

#ifndef SIM_SMALL_FN_HH
#define SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "logging.hh"

namespace nosync
{

template <typename Signature, std::size_t Capacity>
class SmallFn;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity>
{
  public:
    SmallFn() = default;
    SmallFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            new (_storage) Fn(std::forward<F>(f));
            _ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(_storage) =
                new Fn(std::forward<F>(f));
            _ops = &heapOps<Fn>;
        }
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn(const SmallFn &other)
    {
        if (other._ops) {
            panic_if(!other._ops->copy,
                     "copying a SmallFn holding a non-copyable "
                     "callable");
            other._ops->copy(other._storage, _storage);
            _ops = other._ops;
        }
    }

    SmallFn &
    operator=(const SmallFn &other)
    {
        if (this != &other) {
            SmallFn tmp(other);
            reset();
            moveFrom(tmp);
        }
        return *this;
    }

    ~SmallFn() { reset(); }

    R
    operator()(Args... args) const
    {
        panic_if(!_ops, "invoking an empty SmallFn");
        return _ops->invoke(_storage, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return _ops != nullptr; }

    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst);
        /** Copy-construct dst from src; null if not copyable. */
        void (*copy)(const void *src, void *dst);
        void (*destroy)(void *);
        /** Relocation is a plain byte copy (no ops call needed). */
        bool trivialRelocate;
    };

    /**
     * Pointer alignment, as std::function's buffer: a SmallFn then
     * adds no padding to the closures that capture one. Over-aligned
     * callables take the heap path.
     */
    static constexpr std::size_t kAlign = alignof(void *);

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Capacity && alignof(Fn) <= kAlign &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    void
    moveFrom(SmallFn &other) noexcept
    {
        _ops = other._ops;
        if (!_ops)
            return;
        if (_ops->trivialRelocate)
            std::memcpy(_storage, other._storage, Capacity);
        else
            _ops->relocate(other._storage, _storage);
        other._ops = nullptr;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *s, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(s)))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        []() -> void (*)(const void *, void *) {
            if constexpr (std::is_copy_constructible_v<Fn>) {
                return [](const void *src, void *dst) {
                    new (dst) Fn(*std::launder(
                        reinterpret_cast<const Fn *>(src)));
                };
            } else {
                return nullptr;
            }
        }(),
        [](void *s) {
            std::launder(reinterpret_cast<Fn *>(s))->~Fn();
        },
        std::is_trivially_copyable_v<Fn> &&
            std::is_trivially_destructible_v<Fn>,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s, Args... args) -> R {
            return (**reinterpret_cast<Fn **>(s))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
        []() -> void (*)(const void *, void *) {
            if constexpr (std::is_copy_constructible_v<Fn>) {
                return [](const void *src, void *dst) {
                    *reinterpret_cast<Fn **>(dst) = new Fn(
                        **reinterpret_cast<Fn *const *>(src));
                };
            } else {
                return nullptr;
            }
        }(),
        [](void *s) { delete *reinterpret_cast<Fn **>(s); },
        true, // relocating a heap callable just moves its pointer
    };

    /** Mutable: a const SmallFn still invokes as non-const. */
    alignas(kAlign) mutable unsigned char _storage[Capacity];
    const Ops *_ops = nullptr;
};

} // namespace nosync

#endif // SIM_SMALL_FN_HH
