//! Foreign (non-database) payloads observed on database ports.
//!
//! The paper's honeypots received traffic that was never meant for a DBMS:
//! RDP connection requests (Listing 10), JDWP handshakes (Listing 11), and
//! VMware vSphere SOAP reconnaissance (Listing 12). This module provides
//! byte-exact builders for the agent side and recognizers for the analysis
//! side — when a Redis or PostgreSQL honeypot logs an undecodable blob, the
//! recognizers tell the classifier what the actor was actually scanning for.

// `recognize` reads attacker bytes; the crate root's panic wall covers it.

/// What a foreign payload turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForeignProtocol {
    /// Remote Desktop Protocol connection request (`Cookie: mstshash=`).
    Rdp,
    /// Java Debug Wire Protocol handshake.
    Jdwp,
    /// VMware vSphere SOAP reconnaissance (CVE-2021-22005 precursor).
    VmwareSoap,
    /// Craft CMS CVE-2023-41892 probe payload.
    CraftCms,
    /// TLS ClientHello thrown at a plaintext port.
    TlsClientHello,
}

impl ForeignProtocol {
    /// Stable label used in logs and cluster tags.
    pub fn label(&self) -> &'static str {
        match self {
            ForeignProtocol::Rdp => "rdp-scan",
            ForeignProtocol::Jdwp => "jdwp-scan",
            ForeignProtocol::VmwareSoap => "vmware-recon",
            ForeignProtocol::CraftCms => "craftcms-probe",
            ForeignProtocol::TlsClientHello => "tls-probe",
        }
    }
}

/// The RDP cookie line of Listing 10 wrapped in its X.224/TPKT connection
/// request, as mstshash scanners actually emit it.
pub fn rdp_connection_request(username: &str) -> Vec<u8> {
    let cookie = format!("Cookie: mstshash={username}\r\n");
    let x224_len = 6 + cookie.len() + 8; // CR header + cookie + negotiation req
    let total = 4 + 1 + x224_len;
    let mut out = Vec::with_capacity(total);
    // TPKT header
    out.push(0x03);
    out.push(0x00);
    out.extend_from_slice(&u16::try_from(total).unwrap_or(u16::MAX).to_be_bytes());
    // X.224 connection request
    out.push(u8::try_from(x224_len).unwrap_or(u8::MAX)); // length indicator
    out.push(0xe0); // CR CDT
    out.extend_from_slice(&[0x00, 0x00, 0x00, 0x00, 0x00]); // dst/src ref, class
    out.extend_from_slice(cookie.as_bytes());
    // RDP negotiation request (type 1, flags 0, len 8, protocols: TLS)
    out.extend_from_slice(&[0x01, 0x00, 0x08, 0x00, 0x01, 0x00, 0x00, 0x00]);
    out
}

/// The 14-byte JDWP handshake of Listing 11.
pub fn jdwp_handshake() -> Vec<u8> {
    b"JDWP-Handshake".to_vec()
}

/// The SOAP body of Listing 12: `RetrieveServiceContent` against VMware
/// vSphere, used to fingerprint hosts vulnerable to CVE-2021-22005.
pub fn vmware_soap_body() -> String {
    concat!(
        r#"<?xml version="1.0" encoding="UTF-8"?>"#,
        r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" "#,
        r#"xmlns:vim25="urn:vim25">"#,
        r#"<soapenv:Body>"#,
        r#"<vim25:RetrieveServiceContent>"#,
        r#"<vim25:_this type="ServiceInstance">ServiceInstance</vim25:_this>"#,
        r#"</vim25:RetrieveServiceContent>"#,
        r#"</soapenv:Body>"#,
        r#"</soapenv:Envelope>"#
    )
    .to_string()
}

/// The Craft CMS CVE-2023-41892 probe body of Listing 14.
pub fn craftcms_probe_body() -> String {
    concat!(
        "action=conditions/render&test[userCondition]=",
        "craft\\elements\\conditions\\users\\UserCondition&config=",
        r#"{"name":"test[userCondition]","as xyz":{"class":"\\GuzzleHttp\\Psr7\\FnStream","#,
        r#""__construct()":[{"close":null}],"_fn_close":"phpinfo"}}"#
    )
    .to_string()
}

/// A minimal TLS 1.2 ClientHello (scanners often try TLS on every port).
pub fn tls_client_hello() -> Vec<u8> {
    let mut hello = vec![
        0x16, 0x03, 0x01, // handshake, TLS 1.0 record version
        0x00, 0x2f, // record length (47)
        0x01, // client hello
        0x00, 0x00, 0x2b, // handshake length (43)
        0x03, 0x03, // TLS 1.2
    ];
    hello.extend_from_slice(&[0xAB; 32]); // "random"
    hello.extend_from_slice(&[
        0x00, // session id length
        0x00, 0x02, 0x00, 0x2f, // one cipher suite
        0x01, 0x00, // null compression
        0x00, 0x00, // no extensions
    ]);
    hello
}

/// Identify a foreign protocol from the first bytes a honeypot captured.
pub fn recognize(payload: &[u8]) -> Option<ForeignProtocol> {
    if contains(payload, b"Cookie: mstshash=") {
        return Some(ForeignProtocol::Rdp);
    }
    if payload.starts_with(b"JDWP-Handshake") {
        return Some(ForeignProtocol::Jdwp);
    }
    if contains(payload, b"RetrieveServiceContent") {
        return Some(ForeignProtocol::VmwareSoap);
    }
    if contains(payload, b"conditions/render") && contains(payload, b"UserCondition") {
        return Some(ForeignProtocol::CraftCms);
    }
    if matches!(payload.first_chunk::<3>(), Some([0x16, 0x03, _])) {
        return Some(ForeignProtocol::TlsClientHello);
    }
    None
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len().max(1)).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoy_base::rng::{for_all, Rng};

    #[test]
    fn recognize_never_panics() {
        let gen = |rng: &mut Rng| -> Vec<u8> {
            (0..rng.gen_range(0..256usize))
                .map(|_| rng.gen_range(0..=u8::MAX))
                .collect()
        };
        for_all(0x1091, 256, gen, |bytes| {
            let _ = recognize(bytes);
        });
    }

    #[test]
    fn rdp_request_matches_listing10() {
        let pkt = rdp_connection_request("Administr");
        assert_eq!(&pkt[..2], &[0x03, 0x00]); // TPKT
        assert_eq!(recognize(&pkt), Some(ForeignProtocol::Rdp));
        let text = String::from_utf8_lossy(&pkt);
        assert!(text.contains("Cookie: mstshash=Administr"));
        // declared TPKT length equals the packet length
        let declared = u16::from_be_bytes([pkt[2], pkt[3]]) as usize;
        assert_eq!(declared, pkt.len());
    }

    #[test]
    fn jdwp_recognized() {
        assert_eq!(recognize(&jdwp_handshake()), Some(ForeignProtocol::Jdwp));
        assert_eq!(jdwp_handshake().len(), 14);
    }

    #[test]
    fn vmware_soap_recognized() {
        let body = vmware_soap_body();
        assert!(body.contains("RetrieveServiceContent"));
        assert!(body.contains("ServiceInstance"));
        assert_eq!(
            recognize(body.as_bytes()),
            Some(ForeignProtocol::VmwareSoap)
        );
    }

    #[test]
    fn craftcms_probe_matches_listing14() {
        let body = craftcms_probe_body();
        assert!(body.contains("action=conditions/render"));
        assert!(body.contains("FnStream"));
        assert!(body.contains("phpinfo"));
        assert_eq!(recognize(body.as_bytes()), Some(ForeignProtocol::CraftCms));
    }

    #[test]
    fn tls_hello_recognized_and_bounded() {
        let hello = tls_client_hello();
        assert_eq!(recognize(&hello), Some(ForeignProtocol::TlsClientHello));
        // declared record length + 5-byte record header == packet length
        let rec_len = u16::from_be_bytes([hello[3], hello[4]]) as usize;
        assert_eq!(rec_len + 5, hello.len());
    }

    #[test]
    fn unknown_bytes_not_recognized() {
        assert_eq!(recognize(b"GET / HTTP/1.1"), None);
        assert_eq!(recognize(b""), None);
        assert_eq!(recognize(&[0x00, 0x01, 0x02]), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ForeignProtocol::Rdp.label(), "rdp-scan");
        assert_eq!(ForeignProtocol::Jdwp.label(), "jdwp-scan");
        assert_eq!(ForeignProtocol::VmwareSoap.label(), "vmware-recon");
        assert_eq!(ForeignProtocol::CraftCms.label(), "craftcms-probe");
        assert_eq!(ForeignProtocol::TlsClientHello.label(), "tls-probe");
    }
}
