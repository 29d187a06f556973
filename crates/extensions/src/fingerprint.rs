//! Browser-fingerprinting surface — Table 1's fingerprinting row.
//!
//! "WebViews are significantly more vulnerable [to fingerprinting]" (Tiwari
//! et al.): every app's WebView exposes an app-specific user agent, its
//! own storage partition, and app-dependent feature toggles, so the same
//! user is *distinguishable across apps* — whereas every Custom Tab on the
//! device is the same browser with the same fingerprint.
//!
//! [`Fingerprint`] collects the classic entropy sources; the tests encode
//! the linkability contrast.

use wla_web::simhash::simhash64;

/// What kind of client surface is being fingerprinted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// An app's WebView (app package + WebView build).
    WebView,
    /// A Custom Tab / the default browser.
    Browser,
}

/// A collected fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Navigator user agent.
    pub user_agent: String,
    /// Canvas-rendering hash (device + engine dependent).
    pub canvas_hash: u64,
    /// Enumerated font list hash.
    pub font_hash: u64,
    /// Whether third-party cookies / storage partitioning differ per app.
    pub per_app_storage: bool,
}

impl Fingerprint {
    /// Stable 64-bit digest of the whole fingerprint.
    pub fn digest(&self) -> u64 {
        simhash64([
            self.user_agent.as_str(),
            if self.per_app_storage {
                "per-app"
            } else {
                "shared"
            },
        ]) ^ self.canvas_hash.rotate_left(17)
            ^ self.font_hash
    }
}

/// Device-constant parameters (model, Android and engine versions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Device model string.
    pub model: String,
    /// Android release.
    pub android_version: String,
    /// Chrome/WebView engine version.
    pub engine_version: String,
}

impl DeviceProfile {
    /// The study's Pixel 3 on LineageOS 19.
    pub fn pixel3() -> DeviceProfile {
        DeviceProfile {
            model: "Pixel 3".into(),
            android_version: "12".into(),
            engine_version: "110.0.5481.65".into(),
        }
    }
}

/// Collect the fingerprint a page would see from `surface`.
///
/// A WebView's user agent carries the `wv` token and — through
/// `X-Requested-With` and UA customization — is attributable to
/// `app_package`; its canvas/font measurements also vary with the app's
/// rendering configuration. A browser/CT fingerprint depends only on the
/// device profile.
pub fn collect(device: &DeviceProfile, surface: Surface, app_package: &str) -> Fingerprint {
    match surface {
        Surface::WebView => {
            let user_agent = format!(
                "Mozilla/5.0 (Linux; Android {}; {} Build) AppleWebKit/537.36 (KHTML, like Gecko) \
                 Version/4.0 Chrome/{} Mobile Safari/537.36 wv [{app_package}]",
                device.android_version, device.model, device.engine_version,
            );
            Fingerprint {
                canvas_hash: simhash64([
                    device.model.as_str(),
                    device.engine_version.as_str(),
                    app_package,
                ]),
                font_hash: simhash64(["roboto", "noto", app_package]),
                user_agent,
                per_app_storage: true,
            }
        }
        Surface::Browser => {
            let user_agent = format!(
                "Mozilla/5.0 (Linux; Android {}; {}) AppleWebKit/537.36 (KHTML, like Gecko) \
                 Chrome/{} Mobile Safari/537.36",
                device.android_version, device.model, device.engine_version,
            );
            Fingerprint {
                canvas_hash: simhash64([device.model.as_str(), device.engine_version.as_str()]),
                font_hash: simhash64(["roboto", "noto"]),
                user_agent,
                per_app_storage: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn webviews_of_different_apps_are_distinguishable() {
        let device = DeviceProfile::pixel3();
        let a = collect(&device, Surface::WebView, "com.facebook.katana");
        let b = collect(&device, Surface::WebView, "kik.android");
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.user_agent, b.user_agent);
    }

    #[test]
    fn custom_tabs_share_one_fingerprint_across_apps() {
        // "Same default web browser used across multiple apps" (Table 1):
        // the app launching the CT leaves no trace in the fingerprint.
        let device = DeviceProfile::pixel3();
        let a = collect(&device, Surface::Browser, "com.facebook.katana");
        let b = collect(&device, Surface::Browser, "kik.android");
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn webview_ua_carries_the_wv_token() {
        let device = DeviceProfile::pixel3();
        let wv = collect(&device, Surface::WebView, "com.app");
        assert!(wv.user_agent.contains(" wv "));
        let browser = collect(&device, Surface::Browser, "com.app");
        assert!(!browser.user_agent.contains(" wv "));
    }

    #[test]
    fn storage_partitioning_differs() {
        let device = DeviceProfile::pixel3();
        assert!(collect(&device, Surface::WebView, "a").per_app_storage);
        assert!(!collect(&device, Surface::Browser, "a").per_app_storage);
    }

    #[test]
    fn different_devices_differ_everywhere() {
        let p3 = DeviceProfile::pixel3();
        let other = DeviceProfile {
            model: "Pixel 7".into(),
            android_version: "14".into(),
            engine_version: "120.0.0.1".into(),
        };
        assert_ne!(
            collect(&p3, Surface::Browser, "a").digest(),
            collect(&other, Surface::Browser, "a").digest()
        );
    }
}
