// Small-buffer callable for simulator events.
//
// Event dispatch is on the hot path of every run: a `std::function<void()>`
// heap-allocates for
// anything past its (implementation-defined, typically 16-byte) inline
// buffer, which covers almost every simulation callback (they capture `this`
// plus a handful of ids / payload handles).  `SmallFn` widens the inline
// buffer to 64 bytes so the common case never touches the allocator, while
// still falling back to the heap for oversized or throwing-move captures.
// Semantics match the `std::function` subset the simulator uses: copyable,
// movable, default-constructible, bool-testable, `void()` call signature.
// `bench/micro_dispatch.cpp` (BM_SimulatorDispatch) measures the difference.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fl::sim {

class SmallFn {
public:
    /// Inline storage: sized for a lambda capturing `this` + ~7 words.
    static constexpr std::size_t kInlineSize = 64;

    SmallFn() noexcept = default;
    SmallFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                          std::is_invocable_r_v<void, D&>>>
    SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
        construct<D>(std::forward<F>(f));
    }

    SmallFn(const SmallFn& other) : vtable_(other.vtable_) {
        if (vtable_) vtable_->copy(storage_, other.storage_);
    }

    SmallFn(SmallFn&& other) noexcept : vtable_(other.vtable_) {
        if (vtable_) {
            vtable_->relocate(storage_, other.storage_);
            other.vtable_ = nullptr;
        }
    }

    SmallFn& operator=(const SmallFn& other) {
        if (this != &other) {
            SmallFn tmp(other);
            *this = std::move(tmp);
        }
        return *this;
    }

    SmallFn& operator=(SmallFn&& other) noexcept {
        if (this != &other) {
            reset();
            vtable_ = other.vtable_;
            if (vtable_) {
                vtable_->relocate(storage_, other.storage_);
                other.vtable_ = nullptr;
            }
        }
        return *this;
    }

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                          std::is_invocable_r_v<void, D&>>>
    SmallFn& operator=(F&& f) {
        SmallFn tmp(std::forward<F>(f));
        return *this = std::move(tmp);
    }

    ~SmallFn() { reset(); }

    void operator()() const { vtable_->invoke(storage_); }

    [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

private:
    struct VTable {
        void (*invoke)(const unsigned char* s);
        void (*copy)(unsigned char* dst, const unsigned char* src);
        void (*relocate)(unsigned char* dst, unsigned char* src) noexcept;
        void (*destroy)(unsigned char* s) noexcept;
    };

    template <typename D>
    static constexpr bool fits_inline =
        sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct InlineOps {
        static D* get(unsigned char* s) noexcept {
            return std::launder(reinterpret_cast<D*>(s));
        }
        static const D* get(const unsigned char* s) noexcept {
            return std::launder(reinterpret_cast<const D*>(s));
        }
        static void invoke(const unsigned char* s) { (*const_cast<D*>(get(s)))(); }
        static void copy(unsigned char* dst, const unsigned char* src) {
            ::new (static_cast<void*>(dst)) D(*get(src));
        }
        static void relocate(unsigned char* dst, unsigned char* src) noexcept {
            ::new (static_cast<void*>(dst)) D(std::move(*get(src)));
            get(src)->~D();
        }
        static void destroy(unsigned char* s) noexcept { get(s)->~D(); }
        static constexpr VTable vtable{&invoke, &copy, &relocate, &destroy};
    };

    template <typename D>
    struct HeapOps {
        static D*& slot(unsigned char* s) noexcept {
            return *std::launder(reinterpret_cast<D**>(s));
        }
        static D* const& slot(const unsigned char* s) noexcept {
            return *std::launder(reinterpret_cast<D* const*>(s));
        }
        static void invoke(const unsigned char* s) { (*slot(s))(); }
        static void copy(unsigned char* dst, const unsigned char* src) {
            ::new (static_cast<void*>(dst)) (D*)(new D(*slot(src)));
        }
        static void relocate(unsigned char* dst, unsigned char* src) noexcept {
            ::new (static_cast<void*>(dst)) (D*)(slot(src));
        }
        static void destroy(unsigned char* s) noexcept { delete slot(s); }
        static constexpr VTable vtable{&invoke, &copy, &relocate, &destroy};
    };

    template <typename D, typename F>
    void construct(F&& f) {
        if constexpr (fits_inline<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
            vtable_ = &InlineOps<D>::vtable;
        } else {
            ::new (static_cast<void*>(storage_)) (D*)(new D(std::forward<F>(f)));
            vtable_ = &HeapOps<D>::vtable;
        }
    }

    void reset() noexcept {
        if (vtable_) {
            vtable_->destroy(storage_);
            vtable_ = nullptr;
        }
    }

    alignas(std::max_align_t) mutable unsigned char storage_[kInlineSize];
    const VTable* vtable_ = nullptr;
};

}  // namespace fl::sim
