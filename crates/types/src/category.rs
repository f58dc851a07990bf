//! Alert categories.
//!
//! Per Section 3.2 of the paper, "two alerts are in the same category if
//! they were tagged by the same expert rule". Categories are therefore
//! per-system rule names such as `KERNDTLB` (BG/L) or `PBS_CHK`
//! (Liberty/Spirit). The paper observes 77 categories in total across
//! the five logs (Table 2's "Categories" column).

use crate::alert::AlertType;
use crate::system::SystemId;
use std::fmt;

/// Compact identifier for an alert category within a [`CategoryRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CategoryId(u16);

impl CategoryId {
    /// The raw index value.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a `CategoryId` from a raw index.
    ///
    /// Only meaningful with the registry that produced the index.
    pub const fn from_index(index: u16) -> Self {
        CategoryId(index)
    }
}

impl fmt::Display for CategoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cat#{}", self.0)
    }
}

/// Definition of one alert category: the expert rule's name, the system
/// it applies to, and the administrator-assigned subsystem type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryDef {
    /// Rule/category name as printed in Table 4 (e.g. `KERNDTLB`).
    pub name: String,
    /// The system whose ruleset defines this category.
    pub system: SystemId,
    /// Hardware / Software / Indeterminate, per the administrator's best
    /// understanding ("may not necessarily be root cause").
    pub alert_type: AlertType,
}

/// Registry of alert categories across all systems.
///
/// Lookups scan the definitions: there are at most a few dozen (77 in
/// the paper), callers resolve each category once rather than once per
/// alert, and a scan probes by `(system, &str)` without building an
/// owned key.
///
/// # Examples
///
/// ```
/// use sclog_types::{AlertType, CategoryRegistry, SystemId};
///
/// let mut reg = CategoryRegistry::new();
/// let id = reg.register("PBS_CHK", SystemId::Liberty, AlertType::Software);
/// assert_eq!(reg.def(id).name, "PBS_CHK");
/// assert_eq!(reg.lookup(SystemId::Liberty, "PBS_CHK"), Some(id));
/// assert_eq!(reg.lookup(SystemId::Spirit, "PBS_CHK"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CategoryRegistry {
    defs: Vec<CategoryDef>,
}

impl CategoryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a category, returning its id. Re-registering the same
    /// `(system, name)` pair returns the existing id.
    ///
    /// # Panics
    ///
    /// Panics if the same `(system, name)` is re-registered with a
    /// different [`AlertType`] — a category's type is part of the expert
    /// rule and must be consistent.
    pub fn register(&mut self, name: &str, system: SystemId, alert_type: AlertType) -> CategoryId {
        if let Some(id) = self.lookup(system, name) {
            assert_eq!(
                self.defs[id.index()].alert_type,
                alert_type,
                "category {name} on {system} re-registered with a different type"
            );
            return id;
        }
        let id = CategoryId(u16::try_from(self.defs.len()).expect("more than u16::MAX categories"));
        self.defs.push(CategoryDef {
            name: name.to_owned(),
            system,
            alert_type,
        });
        id
    }

    /// The definition for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry.
    pub fn def(&self, id: CategoryId) -> &CategoryDef {
        &self.defs[id.index()]
    }

    /// Short display name for an id (the rule name).
    pub fn name(&self, id: CategoryId) -> &str {
        &self.def(id).name
    }

    /// Finds the id for a `(system, name)` pair.
    pub fn lookup(&self, system: SystemId, name: &str) -> Option<CategoryId> {
        self.iter()
            .find(|(_, d)| d.system == system && d.name == name)
            .map(|(id, _)| id)
    }

    /// Number of registered categories.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no categories are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterates over `(id, def)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (CategoryId, &CategoryDef)> + '_ {
        self.defs
            .iter()
            .enumerate()
            .map(|(i, d)| (CategoryId(i as u16), d))
    }

    /// Iterates over the categories belonging to one system.
    pub fn for_system(
        &self,
        system: SystemId,
    ) -> impl Iterator<Item = (CategoryId, &CategoryDef)> + '_ {
        self.iter().filter(move |(_, d)| d.system == system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut reg = CategoryRegistry::new();
        let a = reg.register("VAPI", SystemId::Thunderbird, AlertType::Indeterminate);
        let b = reg.register("VAPI", SystemId::Thunderbird, AlertType::Indeterminate);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn same_name_different_system_is_distinct() {
        // PBS_CHK exists on both Liberty and Spirit in Table 4.
        let mut reg = CategoryRegistry::new();
        let lib = reg.register("PBS_CHK", SystemId::Liberty, AlertType::Software);
        let spi = reg.register("PBS_CHK", SystemId::Spirit, AlertType::Software);
        assert_ne!(lib, spi);
        assert_eq!(reg.lookup(SystemId::Liberty, "PBS_CHK"), Some(lib));
        assert_eq!(reg.lookup(SystemId::Spirit, "PBS_CHK"), Some(spi));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn conflicting_type_panics() {
        let mut reg = CategoryRegistry::new();
        reg.register("ECC", SystemId::Thunderbird, AlertType::Hardware);
        reg.register("ECC", SystemId::Thunderbird, AlertType::Software);
    }

    #[test]
    fn for_system_filters() {
        let mut reg = CategoryRegistry::new();
        reg.register("A", SystemId::Liberty, AlertType::Hardware);
        reg.register("B", SystemId::Spirit, AlertType::Software);
        reg.register("C", SystemId::Liberty, AlertType::Software);
        let liberty: Vec<_> = reg
            .for_system(SystemId::Liberty)
            .map(|(_, d)| d.name.as_str())
            .collect();
        assert_eq!(liberty, vec!["A", "C"]);
    }

    #[test]
    fn display() {
        assert_eq!(CategoryId::from_index(3).to_string(), "cat#3");
    }
}
