#include "klass/klass.hh"

#include <memory>

#include "support/logging.hh"

namespace skyway
{

char
fieldDescriptorChar(FieldType t)
{
    switch (t) {
      case FieldType::Boolean: return 'Z';
      case FieldType::Byte: return 'B';
      case FieldType::Char: return 'C';
      case FieldType::Short: return 'S';
      case FieldType::Int: return 'I';
      case FieldType::Long: return 'J';
      case FieldType::Float: return 'F';
      case FieldType::Double: return 'D';
      case FieldType::Ref: return 'L';
    }
    panic("fieldDescriptorChar: bad FieldType");
}

FieldType
fieldTypeFromDescriptor(char c)
{
    switch (c) {
      case 'Z': return FieldType::Boolean;
      case 'B': return FieldType::Byte;
      case 'C': return FieldType::Char;
      case 'S': return FieldType::Short;
      case 'I': return FieldType::Int;
      case 'J': return FieldType::Long;
      case 'F': return FieldType::Float;
      case 'D': return FieldType::Double;
      case 'L': return FieldType::Ref;
      default: panic(std::string("fieldTypeFromDescriptor: bad char ") + c);
    }
}

const FieldDesc *
Klass::findField(const std::string &name) const
{
    auto it = fieldIndex_.find(name);
    if (it == fieldIndex_.end())
        return nullptr;
    return &allFields_[it->second];
}

const FieldDesc &
Klass::requireField(const std::string &name) const
{
    const FieldDesc *f = findField(name);
    if (!f)
        panic("Klass " + name_ + ": no field named " + name);
    return *f;
}

int
Klass::superChainLength() const
{
    int n = 0;
    for (const Klass *k = super_; k; k = k->super())
        ++n;
    return n;
}

void
ClassCatalog::define(ClassDef def)
{
    auto [it, inserted] = defs_.emplace(def.name, std::move(def));
    if (!inserted)
        panic("ClassCatalog: duplicate definition of " + it->first);
}

const ClassDef *
ClassCatalog::find(const std::string &name) const
{
    auto it = defs_.find(name);
    return it == defs_.end() ? nullptr : &it->second;
}

void
defineBootstrapClasses(ClassCatalog &catalog)
{
    // java.lang.String: a character array plus the cached hash, as in
    // the JDK. The hash field participates in the hashcode-preservation
    // experiments.
    catalog.define(ClassDef{
        "java.lang.String",
        "",
        {
            {"value", FieldType::Ref, "[C"},
            {"hash", FieldType::Int, ""},
        },
    });
    catalog.define(ClassDef{
        "java.lang.Integer", "", {{"value", FieldType::Int, ""}}});
    catalog.define(ClassDef{
        "java.lang.Long", "", {{"value", FieldType::Long, ""}}});
    catalog.define(ClassDef{
        "java.lang.Double", "", {{"value", FieldType::Double, ""}}});
    catalog.define(ClassDef{
        "java.lang.Boolean", "", {{"value", FieldType::Boolean, ""}}});
}

KlassTable::KlassTable(const ClassCatalog &catalog, ObjectFormat format)
    : catalog_(catalog), format_(format)
{
}

Klass *
KlassTable::findLoaded(const std::string &name)
{
    auto it = loaded_.find(name);
    return it == loaded_.end() ? nullptr : it->second.get();
}

Klass *
KlassTable::load(const std::string &name)
{
    if (Klass *k = findLoaded(name))
        return k;
    if (!name.empty() && name[0] == '[')
        return loadArrayKlass(name);
    const ClassDef *def = catalog_.find(name);
    if (!def)
        fatal("KlassTable: class not found in catalog: " + name);
    return loadInstanceKlass(*def);
}

Klass *
KlassTable::loadInstanceKlass(const ClassDef &def)
{
    auto k = std::unique_ptr<Klass>(new Klass());
    k->name_ = def.name;
    k->format_ = format_;
    if (!def.superName.empty())
        k->super_ = load(def.superName);
    layout(*k, def);

    Klass *raw = k.get();
    loaded_.emplace(def.name, std::move(k));
    loadOrder_.push_back(raw);
    if (loadHook_)
        loadHook_(loadHookCtx_, *raw);
    return raw;
}

Klass *
KlassTable::loadArrayKlass(const std::string &descriptor)
{
    if (descriptor.size() < 2)
        panic("bad array descriptor: " + descriptor);
    auto k = std::unique_ptr<Klass>(new Klass());
    k->name_ = descriptor;
    k->format_ = format_;
    k->isArray_ = true;

    char d = descriptor[1];
    if (d == 'L') {
        if (descriptor.back() != ';')
            panic("bad ref-array descriptor: " + descriptor);
        k->elemType_ = FieldType::Ref;
        k->elemClassName_ = descriptor.substr(2, descriptor.size() - 3);
    } else if (d == '[') {
        // Array of arrays; the element class is the nested descriptor.
        k->elemType_ = FieldType::Ref;
        k->elemClassName_ = descriptor.substr(1);
    } else {
        k->elemType_ = fieldTypeFromDescriptor(d);
    }
    k->instanceBytes_ = format_.arrayHeaderBytes();

    Klass *raw = k.get();
    loaded_.emplace(descriptor, std::move(k));
    loadOrder_.push_back(raw);
    if (loadHook_)
        loadHook_(loadHookCtx_, *raw);
    return raw;
}

void
KlassTable::layout(Klass &k, const ClassDef &def)
{
    // Super-class fields come first, at the offsets the super assigned;
    // then this class's declared fields, packed in declaration order
    // with natural alignment, as HotSpot does.
    std::size_t offset = format_.headerBytes();
    if (k.super_) {
        k.allFields_ = k.super_->allFields_;
        for (const auto &f : k.allFields_)
            offset = std::max<std::size_t>(offset,
                                           f.offset + fieldSize(f.type));
    }

    for (const FieldDef &fd : def.fields) {
        // Java permits a subclass field to shadow a superclass field
        // (they get distinct storage, resolved by static type); our
        // reflective access is name-keyed, so shadowing would make it
        // ambiguous. Reject it at load time instead of corrupting
        // silently.
        for (const FieldDesc &existing : k.allFields_) {
            if (existing.name == fd.name)
                panic("KlassTable: field '" + fd.name + "' in " +
                      def.name + " shadows an existing field; "
                      "shadowing is not supported");
        }
        std::size_t sz = fieldSize(fd.type);
        offset = alignUp(offset, sz);
        FieldDesc desc{fd.name, fd.type, static_cast<std::uint32_t>(offset),
                       fd.refClass};
        k.ownFields_.push_back(desc);
        k.allFields_.push_back(desc);
        offset += sz;
    }

    k.instanceBytes_ = wordAlign(offset);

    for (std::uint32_t i = 0; i < k.allFields_.size(); ++i) {
        const FieldDesc &f = k.allFields_[i];
        k.fieldIndex_[f.name] = i;
        if (f.type == FieldType::Ref)
            k.refOffsets_.push_back(f.offset);
        else
            k.primDataBytes_ += fieldSize(f.type);
    }
}

Klass *
KlassTable::arrayOfPrimitive(FieldType elem)
{
    return load(arrayDescriptorOfPrimitive(elem));
}

Klass *
KlassTable::arrayOfRefs(const std::string &elemClass)
{
    return load(arrayDescriptorOfRefs(elemClass));
}

std::string
arrayDescriptorOfPrimitive(FieldType elem)
{
    panicIf(elem == FieldType::Ref,
            "arrayDescriptorOfPrimitive: use arrayDescriptorOfRefs");
    return std::string("[") + fieldDescriptorChar(elem);
}

std::string
arrayDescriptorOfRefs(const std::string &elemClass)
{
    if (!elemClass.empty() && elemClass[0] == '[')
        return "[" + elemClass;
    return "[L" + elemClass + ";";
}

} // namespace skyway
