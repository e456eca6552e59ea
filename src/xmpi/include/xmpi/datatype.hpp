/// @file datatype.hpp
/// @brief MPI-style datatypes: builtin types, type constructors, and the
/// pack/unpack engine used by all communication paths.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xmpi {

/// @brief The builtin element kinds. All user data eventually flattens to
/// runs of these; reduction operations dispatch on them.
enum class BuiltinType : std::uint8_t {
    byte_,       ///< uninterpreted byte (XMPI_BYTE); reductions only for bit ops
    char_,
    signed_char,
    unsigned_char,
    short_,
    unsigned_short,
    int_,
    unsigned_int,
    long_,
    unsigned_long,
    long_long,
    unsigned_long_long,
    float_,
    double_,
    long_double,
    bool_,
};

/// @brief Size in bytes of a builtin element.
std::size_t builtin_size(BuiltinType type);

/// @brief One run in a flattened typemap: @c count consecutive elements of
/// kind @c elem starting at byte offset @c offset from the element base.
struct TypeBlock {
    std::ptrdiff_t offset;
    BuiltinType elem;
    std::size_t count;
};

/// @brief An MPI-style datatype. Immutable once committed; reference counted
/// so that handles may be freed while communication is in flight.
///
/// A datatype describes (a) the *typemap* — where the significant bytes live
/// relative to the element base and what builtin kind they are — and (b) the
/// *extent* — the stride between consecutive elements of this type in a
/// buffer. The pack engine serializes `count` elements into a contiguous
/// payload (concatenated typemap runs); unpack is the inverse.
class Datatype {
public:
    enum class Kind : std::uint8_t { builtin, derived };

    /// @brief Constructs a builtin type (used only for the predefined types).
    explicit Datatype(BuiltinType builtin);

    /// @brief Constructs a derived type from an explicit typemap.
    Datatype(std::vector<TypeBlock> typemap, std::ptrdiff_t lower_bound, std::ptrdiff_t extent);

    /// @name Type constructors (mirroring MPI_Type_*)
    /// @{
    static Datatype* contiguous(int count, Datatype const& oldtype);
    static Datatype* vector(int count, int blocklength, int stride, Datatype const& oldtype);
    static Datatype* indexed(
        int count, int const* blocklengths, int const* displacements, Datatype const& oldtype);
    static Datatype* create_struct(
        int count, int const* blocklengths, std::ptrdiff_t const* displacements,
        Datatype* const* types);
    static Datatype* create_resized(
        Datatype const& oldtype, std::ptrdiff_t lower_bound, std::ptrdiff_t extent);
    /// @brief Contiguous run of @c count uninterpreted bytes (KaMPIng's
    /// default mapping for trivially copyable types).
    static Datatype* contiguous_bytes(std::size_t count);
    /// @}

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_builtin() const { return kind_ == Kind::builtin; }
    [[nodiscard]] BuiltinType builtin() const { return builtin_; }

    /// @brief Number of significant bytes per element (MPI_Type_size).
    [[nodiscard]] std::size_t size() const { return size_; }
    /// @brief Stride between consecutive elements (MPI_Type_get_extent).
    [[nodiscard]] std::ptrdiff_t extent() const { return extent_; }
    [[nodiscard]] std::ptrdiff_t lower_bound() const { return lb_; }
    [[nodiscard]] std::vector<TypeBlock> const& typemap() const { return typemap_; }

    /// @brief True iff the typemap is a single run of one builtin kind
    /// starting at offset 0 with extent == size (reduction-friendly layout).
    [[nodiscard]] bool is_homogeneous() const { return homogeneous_; }
    /// @brief True iff the packed representation equals the in-memory
    /// representation: the typemap bytes tile [0, size) without gaps or
    /// reordering and consecutive elements are densely strided
    /// (packed_size(count) == extent() * count). pack/unpack copy such types
    /// with one memcpy; the transport reads this flag only to pick a
    /// protocol that uses the user buffer as the packed form.
    [[nodiscard]] bool is_contiguous() const { return contiguous_; }
    /// @brief For homogeneous types: the builtin kind and element count.
    [[nodiscard]] BuiltinType element_kind() const { return typemap_.front().elem; }
    [[nodiscard]] std::size_t elements_per_item() const { return elements_per_item_; }

    [[nodiscard]] bool committed() const { return committed_; }
    void commit() { committed_ = true; }

    /// @name Reference counting for handle lifetime
    /// @{
    void retain() { refcount_.fetch_add(1, std::memory_order_relaxed); }
    /// @brief Drops one reference; deletes the type when it reaches zero.
    /// Builtin (predefined) types are never deleted.
    void release();
    /// @}

    /// @name Pack engine
    /// @{
    /// @brief Number of payload bytes for @c count elements.
    [[nodiscard]] std::size_t packed_size(std::size_t count) const { return size_ * count; }
    /// @brief Serializes @c count elements starting at @c base into @c out
    /// (which must hold packed_size(count) bytes). One memcpy for a
    /// contiguous type, a typemap walk otherwise; no call at all when there
    /// are zero bytes, so null buffers are fine then.
    void pack(void const* base, std::size_t count, std::byte* out) const;
    /// @brief Deserializes @c count elements from @c in into @c base.
    void unpack(std::byte const* in, std::size_t count, void* base) const;
    /// @}

private:
    Kind kind_;
    BuiltinType builtin_ = BuiltinType::byte_;
    std::size_t size_ = 0;
    std::ptrdiff_t lb_ = 0;
    std::ptrdiff_t extent_ = 0;
    std::vector<TypeBlock> typemap_;
    bool homogeneous_ = false;
    bool contiguous_ = false;
    std::size_t elements_per_item_ = 0;
    bool committed_ = false;
    std::atomic<int> refcount_{1};

    void finalize_layout();
};

/// @name Predefined datatype handles
/// @{
Datatype* predefined_type(BuiltinType type);
/// @}

} // namespace xmpi
