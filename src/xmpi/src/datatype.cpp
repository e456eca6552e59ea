#include "xmpi/datatype.hpp"

#include <algorithm>
#include <cstring>

#include "kassert/kassert.hpp"

namespace xmpi {

std::size_t builtin_size(BuiltinType type) {
    switch (type) {
        case BuiltinType::byte_:
        case BuiltinType::char_:
        case BuiltinType::signed_char:
        case BuiltinType::unsigned_char:
            return 1;
        case BuiltinType::short_:
        case BuiltinType::unsigned_short:
            return sizeof(short);
        case BuiltinType::int_:
        case BuiltinType::unsigned_int:
            return sizeof(int);
        case BuiltinType::long_:
        case BuiltinType::unsigned_long:
            return sizeof(long);
        case BuiltinType::long_long:
        case BuiltinType::unsigned_long_long:
            return sizeof(long long);
        case BuiltinType::float_:
            return sizeof(float);
        case BuiltinType::double_:
            return sizeof(double);
        case BuiltinType::long_double:
            return sizeof(long double);
        case BuiltinType::bool_:
            return sizeof(bool);
    }
    return 0; // unreachable
}

Datatype::Datatype(BuiltinType builtin)
    : kind_(Kind::builtin),
      builtin_(builtin),
      size_(builtin_size(builtin)),
      lb_(0),
      extent_(static_cast<std::ptrdiff_t>(size_)),
      typemap_{TypeBlock{0, builtin, 1}},
      committed_(true) {
    finalize_layout();
}

Datatype::Datatype(std::vector<TypeBlock> typemap, std::ptrdiff_t lower_bound, std::ptrdiff_t extent)
    : kind_(Kind::derived),
      lb_(lower_bound),
      extent_(extent),
      typemap_(std::move(typemap)) {
    finalize_layout();
}

void Datatype::finalize_layout() {
    size_ = 0;
    for (auto const& block: typemap_) {
        size_ += block.count * builtin_size(block.elem);
    }
    homogeneous_ = !typemap_.empty();
    BuiltinType const first = typemap_.empty() ? BuiltinType::byte_ : typemap_.front().elem;
    elements_per_item_ = 0;
    for (auto const& block: typemap_) {
        if (block.elem != first) {
            homogeneous_ = false;
        }
        elements_per_item_ += block.count;
    }
    // Contiguity: the typemap runs must tile [0, size) in order without gaps,
    // and consecutive elements must be densely strided (extent == size, lb 0).
    // Then pack/unpack degenerate to memcpy and the transport may transfer
    // straight from/into user buffers.
    contiguous_ = lb_ == 0 && extent_ == static_cast<std::ptrdiff_t>(size_);
    std::ptrdiff_t cursor = 0;
    for (auto const& block: typemap_) {
        if (block.offset != cursor) {
            contiguous_ = false;
            break;
        }
        cursor += static_cast<std::ptrdiff_t>(block.count * builtin_size(block.elem));
    }
}

void Datatype::release() {
    if (kind_ == Kind::builtin) {
        return; // predefined types live forever
    }
    if (refcount_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete this;
    }
}

namespace {

/// @brief Appends the typemap of @c oldtype shifted by @c shift, @c repeat
/// times with stride @c stride, merging adjacent runs of equal element kind.
void append_replicated(
    std::vector<TypeBlock>& out, Datatype const& oldtype, std::ptrdiff_t shift,
    std::size_t repeat, std::ptrdiff_t stride) {
    for (std::size_t i = 0; i < repeat; ++i) {
        std::ptrdiff_t const base = shift + static_cast<std::ptrdiff_t>(i) * stride;
        for (auto const& block: oldtype.typemap()) {
            std::ptrdiff_t const offset = base + block.offset;
            if (!out.empty()) {
                auto& last = out.back();
                auto const last_end =
                    last.offset
                    + static_cast<std::ptrdiff_t>(last.count * builtin_size(last.elem));
                if (last.elem == block.elem && last_end == offset) {
                    last.count += block.count;
                    continue;
                }
            }
            out.push_back(TypeBlock{offset, block.elem, block.count});
        }
    }
}

} // namespace

Datatype* Datatype::contiguous(int count, Datatype const& oldtype) {
    KASSERT(count >= 0, "negative count in type constructor");
    std::vector<TypeBlock> map;
    append_replicated(map, oldtype, 0, static_cast<std::size_t>(count), oldtype.extent());
    auto const extent = oldtype.extent() * count;
    return new Datatype(std::move(map), oldtype.lower_bound(), extent);
}

Datatype* Datatype::vector(int count, int blocklength, int stride, Datatype const& oldtype) {
    KASSERT(count >= 0 && blocklength >= 0, "negative count in type constructor");
    std::vector<TypeBlock> map;
    for (int i = 0; i < count; ++i) {
        append_replicated(
            map, oldtype, static_cast<std::ptrdiff_t>(i) * stride * oldtype.extent(),
            static_cast<std::size_t>(blocklength), oldtype.extent());
    }
    // MPI extent of a vector: from first to last byte spanned (plus epsilon
    // alignment, which we ignore as all our layouts are byte-exact).
    std::ptrdiff_t extent = 0;
    if (count > 0) {
        extent = (static_cast<std::ptrdiff_t>(count - 1) * stride + blocklength)
                 * oldtype.extent();
    }
    return new Datatype(std::move(map), 0, extent);
}

Datatype* Datatype::indexed(
    int count, int const* blocklengths, int const* displacements, Datatype const& oldtype) {
    std::vector<TypeBlock> map;
    std::ptrdiff_t max_end = 0;
    for (int i = 0; i < count; ++i) {
        append_replicated(
            map, oldtype, static_cast<std::ptrdiff_t>(displacements[i]) * oldtype.extent(),
            static_cast<std::size_t>(blocklengths[i]), oldtype.extent());
        max_end = std::max(
            max_end,
            static_cast<std::ptrdiff_t>(displacements[i] + blocklengths[i]) * oldtype.extent());
    }
    return new Datatype(std::move(map), 0, max_end);
}

Datatype* Datatype::create_struct(
    int count, int const* blocklengths, std::ptrdiff_t const* displacements,
    Datatype* const* types) {
    std::vector<TypeBlock> map;
    std::ptrdiff_t max_end = 0;
    for (int i = 0; i < count; ++i) {
        append_replicated(
            map, *types[i], displacements[i], static_cast<std::size_t>(blocklengths[i]),
            types[i]->extent());
        max_end = std::max(max_end, displacements[i] + blocklengths[i] * types[i]->extent());
    }
    return new Datatype(std::move(map), 0, max_end);
}

Datatype* Datatype::create_resized(
    Datatype const& oldtype, std::ptrdiff_t lower_bound, std::ptrdiff_t extent) {
    return new Datatype(oldtype.typemap(), lower_bound, extent);
}

Datatype* Datatype::contiguous_bytes(std::size_t count) {
    std::vector<TypeBlock> map{TypeBlock{0, BuiltinType::byte_, count}};
    return new Datatype(std::move(map), 0, static_cast<std::ptrdiff_t>(count));
}

void Datatype::pack(void const* base, std::size_t count, std::byte* out) const {
    if (contiguous_) {
        // The packed form IS the in-memory form. Zero-byte copies skip the
        // call: barriers and empty messages pass nullptr buffers.
        if (std::size_t const bytes = packed_size(count); bytes != 0) {
            std::memcpy(out, base, bytes);
        }
        return;
    }
    auto const* element = static_cast<std::byte const*>(base);
    for (std::size_t i = 0; i < count; ++i) {
        for (auto const& block: typemap_) {
            std::size_t const bytes = block.count * builtin_size(block.elem);
            std::memcpy(out, element + block.offset, bytes);
            out += bytes;
        }
        element += extent_;
    }
}

void Datatype::unpack(std::byte const* in, std::size_t count, void* base) const {
    if (contiguous_) {
        if (std::size_t const bytes = packed_size(count); bytes != 0) {
            std::memcpy(base, in, bytes);
        }
        return;
    }
    auto* element = static_cast<std::byte*>(base);
    for (std::size_t i = 0; i < count; ++i) {
        for (auto const& block: typemap_) {
            std::size_t const bytes = block.count * builtin_size(block.elem);
            std::memcpy(element + block.offset, in, bytes);
            in += bytes;
        }
        element += extent_;
    }
}

Datatype* predefined_type(BuiltinType type) {
    // Predefined handles: constructed on first use, never destroyed
    // (construct-on-first-use idiom; see paper Section III-D1).
    static Datatype* const types[] = {
        new Datatype(BuiltinType::byte_),         new Datatype(BuiltinType::char_),
        new Datatype(BuiltinType::signed_char),   new Datatype(BuiltinType::unsigned_char),
        new Datatype(BuiltinType::short_),        new Datatype(BuiltinType::unsigned_short),
        new Datatype(BuiltinType::int_),          new Datatype(BuiltinType::unsigned_int),
        new Datatype(BuiltinType::long_),         new Datatype(BuiltinType::unsigned_long),
        new Datatype(BuiltinType::long_long),     new Datatype(BuiltinType::unsigned_long_long),
        new Datatype(BuiltinType::float_),        new Datatype(BuiltinType::double_),
        new Datatype(BuiltinType::long_double),   new Datatype(BuiltinType::bool_),
    };
    return types[static_cast<std::size_t>(type)];
}

} // namespace xmpi
