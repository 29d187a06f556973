//! In-memory manifest model and the deep-link / intent-resolution queries
//! the pipeline performs on it.

use crate::{ACTION_VIEW, CATEGORY_BROWSABLE};

/// The four Android component kinds — any of them "can serve as the initial
/// point of interaction or entry point" (§3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// UI screen with lifecycle callbacks (`onCreate` …).
    Activity,
    /// Background worker.
    Service,
    /// Broadcast receiver.
    Receiver,
    /// Content provider.
    Provider,
}

impl ComponentKind {
    /// Lifecycle/entry methods Android invokes on this component kind.
    /// These are the traversal roots the call-graph engine uses.
    pub fn lifecycle_methods(self) -> &'static [&'static str] {
        match self {
            ComponentKind::Activity => &[
                "onCreate",
                "onStart",
                "onResume",
                "onPause",
                "onStop",
                "onDestroy",
                "onNewIntent",
                "onActivityResult",
            ],
            ComponentKind::Service => &["onCreate", "onStartCommand", "onBind", "onDestroy"],
            ComponentKind::Receiver => &["onReceive"],
            ComponentKind::Provider => &["onCreate", "query", "insert", "update", "delete"],
        }
    }
}

/// An `<intent-filter>`: the actions, categories, and data specs a component
/// declares it can handle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntentFilter {
    /// `<action android:name=…>` values.
    pub actions: Vec<String>,
    /// `<category android:name=…>` values.
    pub categories: Vec<String>,
    /// `<data android:scheme=…>` values (e.g. `http`, `https`, `myapp`).
    pub data_schemes: Vec<String>,
    /// `<data android:host=…>` values (e.g. `maps.google.com`).
    pub data_hosts: Vec<String>,
}

impl IntentFilter {
    /// Does this filter make the component a web deep link: VIEW action,
    /// BROWSABLE category, and an `http`/`https` scheme? This is the exact
    /// predicate of §3.1.3.
    pub fn is_web_deep_link(&self) -> bool {
        self.actions.iter().any(|a| a == ACTION_VIEW)
            && self.categories.iter().any(|c| c == CATEGORY_BROWSABLE)
            && self
                .data_schemes
                .iter()
                .any(|s| s == "http" || s == "https")
    }

    /// Whether this filter claims the given host for web links
    /// (Android-12-style verified app link behaviour, simplified).
    pub fn handles_host(&self, host: &str) -> bool {
        self.is_web_deep_link() && self.data_hosts.iter().any(|h| h == host)
    }
}

/// One declared component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component kind.
    pub kind: ComponentKind,
    /// Fully-qualified class binary name (`com/example/app/MainActivity`).
    pub class_name: String,
    /// The `android:exported` flag.
    pub exported: bool,
    /// Declared intent filters.
    pub intent_filters: Vec<IntentFilter>,
}

impl Component {
    /// A non-filtered, non-exported component (the common case).
    pub fn simple(kind: ComponentKind, class_name: impl Into<String>) -> Self {
        Component {
            kind,
            class_name: class_name.into(),
            exported: false,
            intent_filters: Vec::new(),
        }
    }

    /// §3.1.3's deep-link predicate: exported *and* has a BROWSABLE
    /// http(s) filter.
    pub fn is_deep_link_activity(&self) -> bool {
        self.kind == ComponentKind::Activity
            && self.exported
            && self
                .intent_filters
                .iter()
                .any(IntentFilter::is_web_deep_link)
    }
}

/// A parsed application manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Application package (`com.example.app`).
    pub package: String,
    /// Version code.
    pub version_code: u32,
    /// Minimum SDK level.
    pub min_sdk: u16,
    /// Target SDK level.
    pub target_sdk: u16,
    /// Declared components.
    pub components: Vec<Component>,
}

impl Manifest {
    /// New manifest for `package`.
    pub fn new(package: impl Into<String>) -> Self {
        Manifest {
            package: package.into(),
            version_code: 1,
            min_sdk: 21,
            target_sdk: 33,
            components: Vec::new(),
        }
    }

    /// Deep-link activities to exclude from third-party WebView accounting.
    pub fn deep_link_activities(&self) -> Vec<&Component> {
        self.components
            .iter()
            .filter(|c| c.is_deep_link_activity())
            .collect()
    }

    /// Does any component claim `host` as a verified web link target?
    pub fn handles_web_host(&self, host: &str) -> bool {
        self.components
            .iter()
            .any(|c| c.exported && c.intent_filters.iter().any(|f| f.handles_host(host)))
    }

    /// Component whose class name matches, if any.
    pub fn component_by_class(&self, class_name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.class_name == class_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CATEGORY_DEFAULT, CATEGORY_LAUNCHER};

    pub(crate) fn sample_manifest() -> Manifest {
        let mut m = Manifest::new("com.example.app");
        m.components.push(Component {
            kind: ComponentKind::Activity,
            class_name: "com/example/app/MainActivity".into(),
            exported: true,
            intent_filters: vec![IntentFilter {
                actions: vec!["android.intent.action.MAIN".into()],
                categories: vec![CATEGORY_LAUNCHER.into()],
                data_schemes: vec![],
                data_hosts: vec![],
            }],
        });
        m.components.push(Component {
            kind: ComponentKind::Activity,
            class_name: "com/example/app/LinkActivity".into(),
            exported: true,
            intent_filters: vec![IntentFilter {
                actions: vec![ACTION_VIEW.into()],
                categories: vec![CATEGORY_BROWSABLE.into(), CATEGORY_DEFAULT.into()],
                data_schemes: vec!["https".into()],
                data_hosts: vec!["example.com".into()],
            }],
        });
        m.components.push(Component::simple(
            ComponentKind::Service,
            "com/example/app/SyncService",
        ));
        m
    }

    #[test]
    fn deep_link_detection() {
        let m = sample_manifest();
        let dl = m.deep_link_activities();
        assert_eq!(dl.len(), 1);
        assert_eq!(dl[0].class_name, "com/example/app/LinkActivity");
    }

    #[test]
    fn launcher_activity_is_not_deep_link() {
        let m = sample_manifest();
        let main = m
            .component_by_class("com/example/app/MainActivity")
            .unwrap();
        assert!(!main.is_deep_link_activity());
    }

    #[test]
    fn unexported_browsable_is_not_deep_link() {
        let mut m = sample_manifest();
        m.components[1].exported = false;
        assert!(m.deep_link_activities().is_empty());
    }

    #[test]
    fn custom_scheme_is_not_web_deep_link() {
        let f = IntentFilter {
            actions: vec![ACTION_VIEW.into()],
            categories: vec![CATEGORY_BROWSABLE.into()],
            data_schemes: vec!["myapp".into()],
            data_hosts: vec![],
        };
        assert!(!f.is_web_deep_link());
    }

    #[test]
    fn host_handling() {
        let m = sample_manifest();
        assert!(m.handles_web_host("example.com"));
        assert!(!m.handles_web_host("other.com"));
    }

    #[test]
    fn lifecycle_methods_nonempty() {
        for kind in [
            ComponentKind::Activity,
            ComponentKind::Service,
            ComponentKind::Receiver,
            ComponentKind::Provider,
        ] {
            assert!(!kind.lifecycle_methods().is_empty());
        }
        assert!(ComponentKind::Activity
            .lifecycle_methods()
            .contains(&"onCreate"));
    }
}
